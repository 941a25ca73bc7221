//! Sequential discrete-event engine.
//!
//! Processes events in the deterministic total order defined by
//! [`EventKey`]. This engine is the semantic
//! reference: the parallel scheduler in [`crate::parallel`] is required (and
//! property-tested) to produce identical LP state.

use crate::calendar::{CalendarQueue, EventQueue};
use crate::error::{SimError, WatchdogConfig};
use crate::event::{Event, EventKey, LpId, EXTERNAL_SRC};
use crate::lp::{Ctx, Lp};
use crate::time::SimTime;
use crate::wire::{SnapshotError, WirePayload, WireReader, WireWriter};
use hrviz_obs::{Collector, Json};

/// Magic prefix of an engine snapshot (`"hrvZ"`), followed by a format
/// version. Restore rejects anything else as corrupt.
const SNAPSHOT_MAGIC: u32 = 0x6872_765a;
/// Current snapshot format version.
const SNAPSHOT_VERSION: u32 = 1;

/// Aggregate statistics for a completed (or paused) run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events delivered to LP handlers.
    pub events_processed: u64,
    /// Events scheduled (including pre-run injections).
    pub events_scheduled: u64,
    /// Timestamp of the last processed event.
    pub end_time: SimTime,
    /// High-water mark of the pending-event queue.
    pub peak_queue_depth: u64,
}

impl EngineStats {
    /// Fold another run's stats into this one: counters add, the end time
    /// and queue high-water mark take the maximum. Used by batch drivers
    /// (the sweep engine) to report totals across isolated runs.
    pub fn accumulate(&mut self, other: &EngineStats) {
        self.events_processed += other.events_processed;
        self.events_scheduled += other.events_scheduled;
        self.end_time = self.end_time.max(other.end_time);
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
    }
}

/// Outcome of [`Engine::run_until`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The pending-event set drained completely.
    Drained,
    /// The time bound was reached with events still pending.
    TimeBound,
    /// The event-count budget was exhausted (see [`Engine::set_event_budget`]).
    Budget,
}

/// Sequential event-driven simulation engine over a set of LPs.
pub struct Engine<P, L: Lp<P>> {
    lps: Vec<L>,
    /// Per-LP event sequence counters (provenance for deterministic order).
    seqs: Vec<u64>,
    queue: CalendarQueue<P>,
    now: SimTime,
    stats: EngineStats,
    lookahead: SimTime,
    /// External injection counter (events scheduled before/outside LPs).
    ext_seq: u64,
    budget: u64,
    out_buf: Vec<Event<P>>,
    initialized: bool,
    collector: Collector,
    /// Stats already reported to the collector (resumed runs report deltas).
    reported: EngineStats,
    watchdog: WatchdogConfig,
    /// Consecutive events processed without virtual time advancing.
    stalled_events: u64,
}

impl<P, L: Lp<P>> Engine<P, L> {
    /// Build an engine over `lps`. `lookahead` is the minimum cross-LP
    /// event delay the model guarantees; the sequential engine only uses it
    /// for validation, while the parallel engine requires it to be > 0.
    pub fn new(lps: Vec<L>, lookahead: SimTime) -> Self {
        let n = lps.len();
        Engine {
            lps,
            seqs: vec![0; n],
            queue: CalendarQueue::new(1),
            now: SimTime::ZERO,
            stats: EngineStats::default(),
            lookahead,
            ext_seq: 0,
            budget: u64::MAX,
            out_buf: Vec::with_capacity(16),
            initialized: false,
            collector: Collector::disabled(),
            reported: EngineStats::default(),
            watchdog: WatchdogConfig::default(),
            stalled_events: 0,
        }
    }

    /// Attach a telemetry collector. The engine reports run-level counters
    /// (`pdes/events_processed`, `pdes/events_scheduled`, rates, peak queue
    /// depth) at run boundaries, never per event.
    pub fn set_collector(&mut self, collector: Collector) {
        self.collector = collector;
    }

    /// The attached telemetry collector (disabled by default).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Number of LPs.
    pub fn num_lps(&self) -> usize {
        self.lps.len()
    }

    /// Current simulation time (time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Run statistics so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Immutable access to an LP (e.g. to read out final metrics).
    pub fn lp(&self, id: LpId) -> &L {
        // lint:allow(slice_index, reason="LpId values are minted by add_lp; a stale id is a model bug the panic surfaces")
        &self.lps[id.index()]
    }

    /// Mutable access to an LP.
    pub fn lp_mut(&mut self, id: LpId) -> &mut L {
        // lint:allow(slice_index, reason="LpId values are minted by add_lp; a stale id is a model bug the panic surfaces")
        &mut self.lps[id.index()]
    }

    /// Iterate over all LPs.
    pub fn lps(&self) -> impl Iterator<Item = &L> {
        self.lps.iter()
    }

    /// Consume the engine, returning the LPs.
    pub fn into_lps(self) -> Vec<L> {
        self.lps
    }

    /// Limit the total number of events processed (safety valve for tests
    /// and for detecting runaway models).
    pub fn set_event_budget(&mut self, budget: u64) {
        self.budget = budget;
    }

    /// Configure the no-progress watchdog used by the checked run APIs
    /// ([`Engine::try_run_until`] / [`Engine::try_run_to_completion`]).
    pub fn set_watchdog(&mut self, cfg: WatchdogConfig) {
        self.watchdog = cfg;
    }

    /// Inject an event from outside the simulation at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, dst: LpId, payload: P) {
        assert!(at >= self.now, "cannot schedule into the past");
        let key = EventKey { time: at, dst, src: EXTERNAL_SRC, seq: self.ext_seq };
        self.ext_seq += 1;
        self.stats.events_scheduled += 1;
        self.queue.push(Event { key, payload });
    }

    fn init(&mut self) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        for i in 0..self.lps.len() {
            let id = LpId(i as u32);
            // lint:allow(slice_index, reason="seqs is built in lockstep with lps by add_lp")
            let seq = &mut self.seqs[i];
            let mut ctx = Ctx::new(SimTime::ZERO, id, seq, &mut self.out_buf, self.lookahead);
            self.lps[i].on_init(&mut ctx);
            self.stats.events_scheduled += self.out_buf.len() as u64;
            for ev in self.out_buf.drain(..) {
                self.queue.push(ev);
            }
        }
    }

    /// Deliver one popped event to its LP and enqueue what the handler sent.
    fn deliver(&mut self, ev: Event<P>) {
        debug_assert!(ev.key.time >= self.now, "event time went backwards");
        if ev.key.time > self.now {
            self.stalled_events = 0;
        } else {
            self.stalled_events += 1;
        }
        self.now = ev.key.time;
        let idx = ev.key.dst.index();
        // lint:allow(slice_index, reason="event destinations are LpIds minted by add_lp; seqs/lps are lockstep arrays")
        let seq = &mut self.seqs[idx];
        let mut ctx = Ctx::new(self.now, ev.key.dst, seq, &mut self.out_buf, self.lookahead);
        // lint:allow(slice_index, reason="event destinations are LpIds minted by add_lp")
        self.lps[idx].on_event(&mut ctx, ev.payload);
        self.stats.events_processed += 1;
        self.stats.events_scheduled += self.out_buf.len() as u64;
        self.stats.end_time = self.now;
        for ev in self.out_buf.drain(..) {
            self.queue.push(ev);
        }
        self.stats.peak_queue_depth = self.stats.peak_queue_depth.max(self.queue.len() as u64);
    }

    /// Run until the queue drains, `until` is passed, or the budget runs out.
    ///
    /// Events with `time >= until` remain queued, so runs can be resumed.
    pub fn run_until(&mut self, until: SimTime) -> RunOutcome {
        match self.run_loop(until, u64::MAX) {
            Ok(outcome) => outcome,
            // lint:allow(panic_unwrap, reason="run_loop only errs on a stall, and the limit is u64::MAX; unreachable! documents the invariant")
            Err(e) => unreachable!("unchecked run reported a stall: {e}"),
        }
    }

    /// The one event loop: pop-and-deliver until the queue drains, the next
    /// event is at or past `until`, the budget runs out, or more than
    /// `stall_limit` consecutive events fail to advance virtual time. The
    /// queue's clock moves only when an event is delivered, so it never
    /// passes `now` and [`Engine::schedule`]'s assert is all a caller needs.
    fn run_loop(&mut self, until: SimTime, stall_limit: u64) -> Result<RunOutcome, SimError> {
        self.init();
        // lint:allow(wall_clock, reason="telemetry only: wall time feeds obs perf reporting and never reaches simulation state or event order")
        let t0 = self.collector.is_enabled().then(std::time::Instant::now);
        let outcome = loop {
            if self.stats.events_processed >= self.budget {
                break Ok(RunOutcome::Budget);
            }
            let Some(ev) = self.queue.pop_if_before(until) else {
                break Ok(if self.queue.is_empty() {
                    RunOutcome::Drained
                } else {
                    RunOutcome::TimeBound
                });
            };
            self.deliver(ev);
            if self.stalled_events > stall_limit {
                break Err(SimError::VirtualTimeStall {
                    now: self.now,
                    events: self.stalled_events,
                    limit: stall_limit,
                });
            }
        };
        if let Some(t0) = t0 {
            self.report_run(t0.elapsed());
        }
        outcome
    }

    /// Report boundary telemetry for the run segment since the last report.
    fn report_run(&mut self, wall: std::time::Duration) {
        let c = &self.collector;
        let processed = self.stats.events_processed - self.reported.events_processed;
        let scheduled = self.stats.events_scheduled - self.reported.events_scheduled;
        self.reported = self.stats;
        c.counter_add("pdes/events_processed", processed);
        c.counter_add("pdes/events_scheduled", scheduled);
        c.gauge_max("pdes/peak_queue_depth", self.stats.peak_queue_depth as f64);
        let secs = wall.as_secs_f64();
        let rate = if secs > 0.0 { processed as f64 / secs } else { 0.0 };
        if rate > 0.0 {
            c.gauge_set("pdes/events_per_sec", rate);
        }
        c.event(
            "engine_run",
            &[
                ("events_processed", Json::U64(processed)),
                ("events_scheduled", Json::U64(scheduled)),
                ("events_per_sec", Json::F64(rate)),
                ("peak_queue_depth", Json::U64(self.stats.peak_queue_depth)),
                ("wall_us", Json::F64(secs * 1e6)),
            ],
        );
        // One timeline lane for the sequential engine: the run segment as
        // a wall-time span annotated with virtual-time progress and queue
        // depth, for the Chrome trace export.
        if let Some(end_us) = c.now_us() {
            let dur_us = (secs * 1e6) as u64;
            c.record_span(
                "pdes/engine",
                "pdes/engine_run",
                end_us.saturating_sub(dur_us),
                dur_us,
                &[
                    ("events", Json::U64(processed)),
                    ("end_vt_ns", Json::U64(self.stats.end_time.as_nanos())),
                    ("queue_depth", Json::U64(self.queue.len() as u64)),
                ],
            );
        }
    }

    /// Run until no events remain (or the budget runs out).
    pub fn run_to_completion(&mut self) -> RunOutcome {
        let outcome = self.run_until(SimTime::MAX);
        let now = self.now;
        for lp in &mut self.lps {
            lp.on_finish(now);
        }
        outcome
    }

    /// Checked variant of [`Engine::run_until`]: additionally watches for
    /// virtual-time stalls (see [`Engine::set_watchdog`]) and converts them
    /// into a structured [`SimError`] instead of looping forever.
    pub fn try_run_until(&mut self, until: SimTime) -> Result<RunOutcome, SimError> {
        let outcome = self.run_loop(until, self.watchdog.max_stalled_events);
        if let Err(e) = &outcome {
            report_watchdog(&self.collector, e);
        }
        outcome
    }

    /// Checked variant of [`Engine::run_to_completion`]: watches for
    /// virtual-time stalls while running, and after a fully drained run
    /// audits every LP ([`Lp::audit`]), converting violations (e.g. leaked
    /// flow-control credits) into [`SimError::Invariant`].
    pub fn try_run_to_completion(&mut self) -> Result<RunOutcome, SimError> {
        let outcome = self.try_run_until(SimTime::MAX)?;
        let now = self.now;
        for lp in &mut self.lps {
            lp.on_finish(now);
        }
        if outcome == RunOutcome::Drained {
            audit_lps(self.lps.iter().map(|l| l as &dyn Lp<P>), &self.collector)?;
        }
        Ok(outcome)
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Serialize the engine's full dynamic state — virtual clock, stats,
    /// per-LP sequence counters, the pending-event set (sorted by
    /// [`EventKey`], so the bytes are deterministic regardless of queue
    /// layout), and each LP's [`Lp::snapshot`] blob.
    ///
    /// The snapshot deliberately excludes static configuration (lookahead,
    /// budget, watchdog, collector): [`Engine::restore`] is called on a
    /// freshly constructed engine that already carries those, which keeps
    /// snapshots small and lets a restore re-attach a live collector.
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapshotError>
    where
        P: WirePayload,
    {
        let mut w = WireWriter::new();
        w.put_u32(SNAPSHOT_MAGIC);
        w.put_u32(SNAPSHOT_VERSION);
        w.put_u64(self.now.as_nanos());
        w.put_u64(self.ext_seq);
        w.put_u64(self.stalled_events);
        w.put_bool(self.initialized);
        w.put_u64(self.stats.events_processed);
        w.put_u64(self.stats.events_scheduled);
        w.put_u64(self.stats.end_time.as_nanos());
        w.put_u64(self.stats.peak_queue_depth);
        w.put_u64(self.seqs.len() as u64);
        for s in &self.seqs {
            w.put_u64(*s);
        }
        let mut events: Vec<&Event<P>> = self.queue.iter().collect();
        events.sort_by_key(|ev| ev.key);
        w.put_u64(events.len() as u64);
        for ev in events {
            w.put_u64(ev.key.time.as_nanos());
            w.put_u32(ev.key.dst.0);
            w.put_u32(ev.key.src.0);
            w.put_u64(ev.key.seq);
            ev.payload.encode(&mut w);
        }
        w.put_u64(self.lps.len() as u64);
        for lp in &self.lps {
            let mut sub = WireWriter::new();
            lp.snapshot(&mut sub)?;
            w.put_bytes(&sub.into_bytes());
        }
        Ok(w.into_bytes())
    }

    /// Restore state captured by [`Engine::snapshot`] into this engine.
    ///
    /// `self` must be freshly constructed from the *same* model
    /// configuration that produced the snapshot (same LPs in the same
    /// order); only dynamic state is patched, via each LP's
    /// [`Lp::restore`]. After a successful restore the engine continues
    /// exactly where the snapshot was taken: a resumed run is
    /// bit-identical to one that never paused.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError>
    where
        P: WirePayload,
    {
        let mut r = WireReader::new(bytes);
        if r.u32()? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::Corrupt("bad snapshot magic".into()));
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot version {version} (engine supports {SNAPSHOT_VERSION})"
            )));
        }
        self.now = SimTime(r.u64()?);
        self.ext_seq = r.u64()?;
        self.stalled_events = r.u64()?;
        self.initialized = r.bool()?;
        self.stats = EngineStats {
            events_processed: r.u64()?,
            events_scheduled: r.u64()?,
            end_time: SimTime(r.u64()?),
            peak_queue_depth: r.u64()?,
        };
        // Resumed segments report telemetry deltas from the restore point.
        self.reported = self.stats;
        let n_seqs = r.u64()? as usize;
        if n_seqs != self.lps.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot has {n_seqs} LPs, engine has {}",
                self.lps.len()
            )));
        }
        self.seqs.clear();
        for _ in 0..n_seqs {
            self.seqs.push(r.u64()?);
        }
        let n_events = r.u64()? as usize;
        let mut queue = CalendarQueue::new(1);
        for _ in 0..n_events {
            let key = EventKey {
                time: SimTime(r.u64()?),
                dst: LpId(r.u32()?),
                src: LpId(r.u32()?),
                seq: r.u64()?,
            };
            let payload = P::decode(&mut r)?;
            queue.push(Event { key, payload });
        }
        self.queue = queue;
        let n_lps = r.u64()? as usize;
        if n_lps != self.lps.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot has {n_lps} LP blobs, engine has {}",
                self.lps.len()
            )));
        }
        for lp in &mut self.lps {
            let blob = r.bytes()?;
            let mut sub = WireReader::new(blob);
            lp.restore(&mut sub)?;
            sub.finish()?;
        }
        r.finish()
    }
}

/// Emit the watchdog-trip diagnostics shared by both engines: a counter and
/// one structured trace event with the failure detail.
pub(crate) fn report_watchdog(c: &Collector, e: &SimError) {
    c.counter_add("pdes/watchdog_trips", 1);
    c.event(
        "watchdog_trip",
        &[("trip", Json::Str(e.kind().to_string())), ("detail", Json::Str(e.to_string()))],
    );
    // A trip is an incident: preserve the events leading up to it. Best
    // effort — a full disk must not mask the SimError being reported.
    let _ = c.flight_dump("watchdog");
}

/// Run [`Lp::audit`] over every LP (in global id order) and fold failures
/// into a [`SimError::Invariant`]. Reporting keeps at most the first eight
/// violations; the total count is preserved.
pub(crate) fn audit_lps<'a, P: 'a>(
    lps: impl Iterator<Item = &'a dyn Lp<P>>,
    c: &Collector,
) -> Result<(), SimError> {
    let mut failures = Vec::new();
    let mut total = 0u64;
    for (i, lp) in lps.enumerate() {
        if let Err(what) = lp.audit() {
            total += 1;
            if failures.len() < 8 {
                failures.push((i as u32, what));
            }
        }
    }
    if total == 0 {
        return Ok(());
    }
    let e = SimError::Invariant { failures, total };
    report_watchdog(c, &e);
    Err(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy model: a ring of LPs passing a token `hops` times, each hop
    /// taking 10 ns, recording visits.
    struct RingLp {
        visits: u32,
        n: u32,
    }

    #[derive(Clone, Debug)]
    struct Token {
        hops_left: u32,
    }

    impl Lp<Token> for RingLp {
        fn on_event(&mut self, ctx: &mut Ctx<'_, Token>, t: Token) {
            self.visits += 1;
            if t.hops_left > 0 {
                let next = LpId((ctx.me().0 + 1) % self.n);
                ctx.send(next, SimTime(10), Token { hops_left: t.hops_left - 1 });
            }
        }

        fn snapshot(&self, w: &mut WireWriter) -> Result<(), SnapshotError> {
            w.put_u32(self.visits);
            Ok(())
        }

        fn restore(&mut self, r: &mut WireReader<'_>) -> Result<(), SnapshotError> {
            self.visits = r.u32()?;
            Ok(())
        }
    }

    impl WirePayload for Token {
        fn encode(&self, w: &mut WireWriter) {
            w.put_u32(self.hops_left);
        }
        fn decode(r: &mut WireReader<'_>) -> Result<Self, SnapshotError> {
            Ok(Token { hops_left: r.u32()? })
        }
    }

    fn ring(n: u32, hops: u32) -> Engine<Token, RingLp> {
        let lps = (0..n).map(|_| RingLp { visits: 0, n }).collect();
        let mut eng = Engine::new(lps, SimTime(10));
        eng.schedule(SimTime::ZERO, LpId(0), Token { hops_left: hops });
        eng
    }

    #[test]
    fn token_circulates() {
        let mut eng = ring(4, 7);
        assert_eq!(eng.run_to_completion(), RunOutcome::Drained);
        // Token visits LP0 at t=0 then makes 7 more hops: 8 visits total.
        let total: u32 = eng.lps().map(|l| l.visits).sum();
        assert_eq!(total, 8);
        assert_eq!(eng.now(), SimTime(70));
        assert_eq!(eng.stats().events_processed, 8);
    }

    #[test]
    fn run_until_pauses_and_resumes() {
        let mut eng = ring(4, 7);
        assert_eq!(eng.run_until(SimTime(35)), RunOutcome::TimeBound);
        assert!(eng.now() <= SimTime(35));
        assert!(eng.pending() > 0);
        assert_eq!(eng.run_to_completion(), RunOutcome::Drained);
        assert_eq!(eng.now(), SimTime(70));
    }

    #[test]
    fn schedule_between_the_pause_and_the_next_event_is_delivered_in_order() {
        /// Ticks itself every 10 ns and logs every payload with its time.
        struct Ticker {
            log: Vec<(u64, u32)>,
        }
        impl Lp<u32> for Ticker {
            fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, tag: u32) {
                self.log.push((ctx.now().as_nanos(), tag));
                if tag == 0 && ctx.now() < SimTime(60) {
                    ctx.send_self(SimTime(10), 0);
                }
            }
        }
        let mut eng = Engine::new(vec![Ticker { log: Vec::new() }], SimTime(10));
        eng.schedule(SimTime::ZERO, LpId(0), 0);
        assert_eq!(eng.run_until(SimTime(35)), RunOutcome::TimeBound);
        // The bound refused the t=40 tick without moving the clock past
        // the last delivery, so anything in [30, 40) is still schedulable.
        assert_eq!(eng.now(), SimTime(30));
        eng.schedule(SimTime(33), LpId(0), 7);
        eng.schedule(SimTime(30), LpId(0), 8);
        assert_eq!(eng.run_to_completion(), RunOutcome::Drained);
        let want = [(0, 0), (10, 0), (20, 0), (30, 0), (30, 8), (33, 7), (40, 0), (50, 0), (60, 0)];
        assert_eq!(eng.lp(LpId(0)).log, want);
    }

    #[test]
    fn budget_halts_runaway() {
        // Each visit schedules another: infinite loop without a budget.
        struct Forever;
        impl Lp<()> for Forever {
            fn on_event(&mut self, ctx: &mut Ctx<'_, ()>, _: ()) {
                ctx.send_self(SimTime(1), ());
            }
        }
        let mut eng = Engine::new(vec![Forever], SimTime(1));
        eng.schedule(SimTime::ZERO, LpId(0), ());
        eng.set_event_budget(100);
        assert_eq!(eng.run_to_completion(), RunOutcome::Budget);
        assert_eq!(eng.stats().events_processed, 100);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        let mut eng = ring(2, 3);
        eng.run_to_completion();
        eng.schedule(SimTime(5), LpId(0), Token { hops_left: 0 });
    }

    #[test]
    fn deterministic_event_order_across_runs() {
        let run = || {
            let mut eng = ring(5, 100);
            eng.run_to_completion();
            eng.lps().map(|l| l.visits).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn collector_reports_run_boundary_counters() {
        let c = hrviz_obs::Collector::enabled();
        let mut eng = ring(4, 7);
        eng.set_collector(c.clone());
        eng.run_to_completion();
        assert_eq!(c.counter("pdes/events_processed"), 8);
        assert_eq!(c.counter("pdes/events_scheduled"), 8);
        assert!(c.gauge("pdes/peak_queue_depth").unwrap() >= 1.0);
        let events = c.drain_events();
        assert!(events.iter().any(|e| e.contains("\"kind\":\"engine_run\"")));
    }

    #[test]
    fn engine_run_records_a_timeline_lane_span() {
        let c = hrviz_obs::Collector::enabled();
        let mut eng = ring(4, 7);
        eng.set_collector(c.clone());
        eng.run_to_completion();
        let recs = c.recent_spans();
        let lane = recs
            .iter()
            .find(|r| r.lane.as_deref() == Some("pdes/engine"))
            .expect("sequential run lands on the pdes/engine lane");
        assert_eq!(lane.label, "pdes/engine_run");
        for key in ["events", "end_vt_ns", "queue_depth"] {
            assert!(lane.args.iter().any(|(k, _)| k == key), "missing arg {key}");
        }
    }

    #[test]
    fn peak_queue_depth_tracks_fanout() {
        // Each event schedules two more for 3 generations: the queue must
        // have held at least 4 pending events at some point.
        struct FanLp;
        impl Lp<u32> for FanLp {
            fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, gen: u32) {
                if gen > 0 {
                    ctx.send_self(SimTime(1), gen - 1);
                    ctx.send_self(SimTime(2), gen - 1);
                }
            }
        }
        let mut eng = Engine::new(vec![FanLp], SimTime(1));
        eng.schedule(SimTime::ZERO, LpId(0), 3);
        eng.run_to_completion();
        assert!(eng.stats().peak_queue_depth >= 4, "peak {}", eng.stats().peak_queue_depth);
    }

    #[test]
    fn watchdog_converts_zero_delay_loop_into_error() {
        struct SpinLp;
        impl Lp<()> for SpinLp {
            fn on_event(&mut self, ctx: &mut Ctx<'_, ()>, _: ()) {
                ctx.send_self(SimTime::ZERO, ());
            }
        }
        let c = hrviz_obs::Collector::enabled();
        let mut eng = Engine::new(vec![SpinLp], SimTime(1));
        eng.set_collector(c.clone());
        eng.schedule(SimTime::ZERO, LpId(0), ());
        eng.set_watchdog(WatchdogConfig { max_stalled_events: 100 });
        let err = eng.try_run_to_completion().unwrap_err();
        assert!(matches!(err, SimError::VirtualTimeStall { limit: 100, .. }), "{err:?}");
        assert_eq!(c.counter("pdes/watchdog_trips"), 1);
        let events = c.drain_events();
        assert!(events.iter().any(|e| e.contains("\"kind\":\"watchdog_trip\"")));
    }

    #[test]
    fn audit_failure_surfaces_as_invariant_error() {
        struct LeakyLp;
        impl Lp<()> for LeakyLp {
            fn on_event(&mut self, _: &mut Ctx<'_, ()>, _: ()) {}
            fn audit(&self) -> Result<(), String> {
                Err("credit leak".into())
            }
        }
        let mut eng = Engine::new(vec![LeakyLp], SimTime(1));
        eng.schedule(SimTime::ZERO, LpId(0), ());
        match eng.try_run_to_completion() {
            Err(SimError::Invariant { failures, total }) => {
                assert_eq!(total, 1);
                assert!(failures[0].1.contains("credit leak"));
            }
            other => panic!("expected invariant error, got {other:?}"),
        }
    }

    #[test]
    fn try_run_matches_unchecked_on_healthy_model() {
        let mut a = ring(4, 7);
        let mut b = ring(4, 7);
        assert_eq!(a.run_to_completion(), RunOutcome::Drained);
        assert_eq!(b.try_run_to_completion(), Ok(RunOutcome::Drained));
        assert_eq!(a.stats().events_processed, b.stats().events_processed);
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn checkpoint_restart_matches_straight_through() {
        // Straight-through reference run.
        let mut straight = ring(4, 7);
        straight.run_to_completion();

        // Pause mid-run, snapshot, restore into a *fresh* engine built
        // from the same model configuration, and finish there.
        let mut first = ring(4, 7);
        assert_eq!(first.run_until(SimTime(35)), RunOutcome::TimeBound);
        let snap = first.snapshot().unwrap();
        let mut resumed = ring(4, 7);
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.now(), first.now());
        assert_eq!(resumed.pending(), first.pending());
        resumed.run_to_completion();

        assert_eq!(resumed.now(), straight.now());
        assert_eq!(resumed.stats(), straight.stats());
        let a: Vec<u32> = resumed.lps().map(|l| l.visits).collect();
        let b: Vec<u32> = straight.lps().map(|l| l.visits).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let snap = |bound: u64| {
            let mut eng = ring(5, 20);
            eng.run_until(SimTime(bound));
            eng.snapshot().unwrap()
        };
        assert_eq!(snap(55), snap(55));
        // A restored engine snapshots to the same bytes as the original.
        let mut eng = ring(5, 20);
        eng.run_until(SimTime(55));
        let first = eng.snapshot().unwrap();
        let mut resumed = ring(5, 20);
        resumed.restore(&first).unwrap();
        assert_eq!(resumed.snapshot().unwrap(), first);
    }

    #[test]
    fn restore_rejects_damaged_snapshots() {
        let mut eng = ring(3, 5);
        eng.run_until(SimTime(25));
        let snap = eng.snapshot().unwrap();

        let mut truncated = ring(3, 5);
        assert!(matches!(
            truncated.restore(&snap[..snap.len() - 3]),
            Err(SnapshotError::Corrupt(_))
        ));

        let mut bad_magic = ring(3, 5);
        let mut garbled = snap.clone();
        garbled[0] ^= 0xff;
        assert!(matches!(bad_magic.restore(&garbled), Err(SnapshotError::Corrupt(_))));

        // Wrong LP count: model mismatch must be caught, not misapplied.
        let mut wrong_shape = ring(4, 5);
        assert!(matches!(wrong_shape.restore(&snap), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn snapshot_without_lp_support_is_unsupported() {
        struct Opaque;
        impl Lp<u32> for Opaque {
            fn on_event(&mut self, _: &mut Ctx<'_, u32>, _: u32) {}
        }
        let mut eng = Engine::new(vec![Opaque], SimTime(1));
        eng.schedule(SimTime::ZERO, LpId(0), 1);
        assert!(matches!(eng.snapshot(), Err(SnapshotError::Unsupported(_))));
    }

    #[test]
    fn on_init_schedules_events() {
        struct InitLp {
            fired: bool,
        }
        impl Lp<()> for InitLp {
            fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.send_self(SimTime(42), ());
            }
            fn on_event(&mut self, _ctx: &mut Ctx<'_, ()>, _: ()) {
                self.fired = true;
            }
        }
        let mut eng = Engine::new(vec![InitLp { fired: false }], SimTime(1));
        eng.run_to_completion();
        assert!(eng.lp(LpId(0)).fired);
        assert_eq!(eng.now(), SimTime(42));
    }
}
