//! The parallel, resumable sweep executor.
//!
//! [`SweepEngine::run`] expands a [`SweepSpec`], splits the grid into
//! store hits (already `completed` — content address present) and misses,
//! spreads the misses across a fixed-width worker pool, and persists each
//! run *as it finishes*: `running` manifest → simulate → atomic
//! `completed` save (or `failed` manifest). Progress also lands in a
//! [`SweepJournal`] under `<store>/sweeps/`, so a `kill -9` mid-grid loses
//! at most the in-flight runs. [`SweepEngine::run_with`] +
//! [`SweepOptions::resume`] retries `failed` and orphaned `running` runs
//! with bounded, deterministically-seeded exponential backoff; completed
//! runs are never re-simulated, and the resumed store's run directories
//! and `GENERATION` are byte-identical to an uninterrupted sweep's.
//!
//! The returned [`SweepOutcome`] carries the hit/miss split and aggregate
//! engine counters; its JSON form is the artifact CI greps for the
//! all-cache-hit and crash-resume assertions.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
#[expect(
    clippy::disallowed_types,
    reason = "telemetry only: wall time feeds obs perf reporting and never reaches simulation state or event order"
)]
use std::time::{Duration, Instant};

use hrviz_faults::HrvizError;
use hrviz_obs::Json;
use hrviz_pdes::EngineStats;
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

use crate::journal::SweepJournal;
use crate::spec::{RunConfig, RunResult, SweepSpec};
use crate::store::{Provenance, RunHealth, RunState, RunStore};
use hrviz_pdes::SimTime;
use hrviz_stream::{AbortSpec, Slice, SliceControl, SliceWriter, StreamedOutcome};

/// One parallel run's outcome (`Ok(None)` = aborted by policy) plus the
/// optional `(start_us, dur_us)` timing of its Chrome-trace lane and the
/// retries it consumed.
type RunOutcome = (Result<Option<RunResult>, HrvizError>, Option<(u64, u64)>, u64);

/// Live-telemetry configuration for a sweep: every run seals one
/// counter-delta [`Slice`] per `window` of virtual time into its run
/// directory (`slices/*.jsonl` + a `progress.json` watermark), and an
/// optional [`AbortSpec`] policy may cancel runs it judges doomed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamOptions {
    /// Virtual-time width of each telemetry slice.
    pub window: SimTime,
    /// Early-abort policy evaluated per sealed slice (`None` = never).
    pub abort: Option<AbortSpec>,
}

/// How a sweep handles prior state and failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepOptions {
    /// Retry `failed` / orphaned-`running` runs instead of treating their
    /// manifests as overwritable scratch.
    pub resume: bool,
    /// Attempts per run within this process (≥ 1).
    pub max_attempts: u32,
    /// Base backoff delay in milliseconds (doubles per attempt).
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_max_ms: u64,
    /// Live slice telemetry (`None` = classic batch mode: no slice files,
    /// no progress watermark, byte-identical to pre-streaming stores).
    pub stream: Option<StreamOptions>,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            resume: false,
            max_attempts: 1,
            backoff_base_ms: 25,
            backoff_max_ms: 1000,
            stream: None,
        }
    }
}

impl SweepOptions {
    /// The `hrviz sweep --resume` configuration: retry interrupted or
    /// failed runs up to 3 times with bounded exponential backoff.
    pub fn resume() -> SweepOptions {
        SweepOptions { resume: true, max_attempts: 3, ..SweepOptions::default() }
    }
}

/// Deterministic bounded exponential backoff before attempt number
/// `attempt` (1-based, counted across crashes via the journal): no delay
/// for a first attempt, then `base·2^(n-1)` plus a seeded jitter, capped.
/// Seeded from the run id so the schedule is reproducible — the lint
/// determinism rules allow sleeping, just never *reading* clocks.
fn backoff_ms(opts: &SweepOptions, run_id: &str, attempt: u64) -> u64 {
    if attempt <= 1 {
        return 0;
    }
    let exp = (attempt - 2).min(16) as u32;
    let base = opts.backoff_base_ms.saturating_mul(1u64 << exp);
    let jitter =
        hrviz_obs::fingerprint64(&format!("{run_id}:{attempt}")) % opts.backoff_base_ms.max(1);
    base.saturating_add(jitter).min(opts.backoff_max_ms)
}

/// Executes sweeps against one [`RunStore`].
#[derive(Debug)]
pub struct SweepEngine {
    store: RunStore,
    workers: usize,
}

impl SweepEngine {
    /// An engine over `store` using one worker per core.
    pub fn new(store: RunStore) -> SweepEngine {
        SweepEngine { store, workers: 0 }
    }

    /// Use exactly `workers` worker threads (`0` restores the per-core
    /// default). Worker count never changes results — only wall clock.
    pub fn with_workers(mut self, workers: usize) -> SweepEngine {
        self.workers = workers;
        self
    }

    /// The engine's store.
    pub fn store(&self) -> &RunStore {
        &self.store
    }

    /// [`SweepEngine::run_with`] under default options (no resume).
    pub fn run(&self, spec: &SweepSpec) -> Result<SweepOutcome, HrvizError> {
        self.run_with(spec, &SweepOptions::default())
    }

    /// Execute every config of `spec` that the store does not already hold
    /// as `completed`, in parallel, persisting each run as it finishes.
    pub fn run_with(
        &self,
        spec: &SweepSpec,
        opts: &SweepOptions,
    ) -> Result<SweepOutcome, HrvizError> {
        #[expect(
            clippy::disallowed_methods,
            clippy::disallowed_types,
            reason = "telemetry only: wall time feeds obs perf reporting and never reaches simulation state or event order"
        )]
        let start = Instant::now();
        let obs = hrviz_obs::get();
        let _span = obs.span("sweep/run");
        let configs = spec.expand()?;
        let run_ids: Vec<String> = configs.iter().map(RunConfig::run_id).collect();
        let sweep_id = format!(
            "{:016x}",
            hrviz_obs::fingerprint64(&format!("{}|{}", spec.name, run_ids.join(",")))
        );
        let prov = Provenance { sweep_id: sweep_id.clone() };

        // Classify the grid against the store's lifecycle states. Aborted
        // is terminal and intentional: resume never retries those runs.
        let mut hits: Vec<&RunConfig> = Vec::new();
        let mut misses: Vec<&RunConfig> = Vec::new();
        let mut prior_aborted: Vec<&RunConfig> = Vec::new();
        let mut resumed_runs = 0usize;
        for cfg in &configs {
            match self.store.health(&cfg.run_id()) {
                RunHealth::Complete => hits.push(cfg),
                RunHealth::Pending(RunState::Aborted) => prior_aborted.push(cfg),
                RunHealth::Pending(_) => {
                    if opts.resume {
                        resumed_runs += 1;
                    }
                    misses.push(cfg);
                }
                RunHealth::Missing | RunHealth::Corrupt(_) => misses.push(cfg),
            }
        }

        // Seed (or merge) the journal: completed hits stay completed with
        // their recorded attempts; misses queue up.
        let loaded = SweepJournal::load(&self.store, &sweep_id);
        let mut journal = loaded
            .clone()
            .unwrap_or_else(|| SweepJournal::new(sweep_id.clone(), spec.name.clone()));
        for cfg in &hits {
            journal.record(&cfg.run_id(), RunState::Completed, false);
        }
        for cfg in &prior_aborted {
            journal.record(&cfg.run_id(), RunState::Aborted, false);
        }
        for cfg in &misses {
            journal.record(&cfg.run_id(), RunState::Queued, false);
        }
        if misses.is_empty() {
            // Every run is already complete. If a crashed predecessor
            // journaled a bump intent but died before `GENERATION` hit
            // disk, finish that bump now so a resumed store converges
            // byte-for-byte with an uninterrupted one.
            if self.finish_bump(journal.pending_generation)? {
                obs.counter_add("sweep/generation_recovered", 1);
            }
            journal.pending_generation = 0;
        } else {
            // Record the bump this sweep owes, before any simulation.
            journal.pending_generation = self.store.generation() + 1;
        }
        // An all-hit rerun finds the journal exactly as it left it: skip
        // the write (and its fsyncs). A missing or damaged one is written.
        if loaded.as_ref() != Some(&journal) {
            journal.persist(&self.store)?;
        }

        obs.counter_add("sweep/store_hit", hits.len() as u64);
        obs.counter_add("sweep/store_miss", misses.len() as u64);
        if resumed_runs > 0 {
            obs.counter_add("sweep/resumed_runs", resumed_runs as u64);
        }
        obs.log(
            hrviz_obs::LogLevel::Info,
            &format!(
                "sweep {:?} ({sweep_id}): {} configs, {} cached, {} aborted earlier, {} to run{}",
                spec.name,
                configs.len(),
                hits.len(),
                prior_aborted.len(),
                misses.len(),
                if opts.resume { format!(", {resumed_runs} resumed") } else { String::new() },
            ),
        );

        let mut stats = EngineStats::default();
        let mut aborted_now = 0usize;
        let retries = AtomicU64::new(0);
        if !misses.is_empty() {
            let work: Vec<(&RunConfig, u64)> =
                misses.iter().map(|c| (*c, journal.attempts(&c.run_id()))).collect();
            let journal = Mutex::new(journal);
            let record = |run: &str, state: RunState, new_attempt: bool| {
                let mut j = journal.lock().unwrap_or_else(|p| p.into_inner());
                j.record(run, state, new_attempt);
                // lint:allow(blocking_under_lock, reason="record+persist must be atomic: persist snapshots the whole journal, and a persist outside the lock could rename an older snapshot over a newer one (temp+rename is last-writer-wins)")
                j.persist(&self.store)
            };
            let pool = ThreadPoolBuilder::new()
                .num_threads(self.workers)
                .build()
                .map_err(|e| HrvizError::config(format!("worker pool: {e}")))?;
            let results: Vec<RunOutcome> = pool.install(|| {
                work.par_iter()
                    .map(|&(cfg, prior_attempts)| {
                        // Per-run lane timing for the Chrome trace export;
                        // skipped entirely when the collector is disabled.
                        let lane_start = obs.now_us();
                        #[expect(
                            clippy::disallowed_methods,
                            clippy::disallowed_types,
                            reason = "telemetry only: per-run timeline lanes for the Chrome trace export, never reaches simulation state or event order"
                        )]
                        let t0 = lane_start.map(|_| Instant::now());
                        let (result, used) =
                            self.attempt_run(cfg, &prov, opts, prior_attempts, &record);
                        let lane = lane_start.zip(t0.map(|t| t.elapsed().as_micros() as u64));
                        retries.fetch_add(used, Ordering::Relaxed);
                        (result, lane, used)
                    })
                    .collect()
            });
            // Fold telemetry in deterministic (expansion) order, then fail
            // on the first error — completed runs are already persisted
            // (that is the point of resumability) but the generation bump
            // below is withheld so caches only advance on full success.
            let mut first_err = None;
            for (cfg, (result, lane, _)) in misses.iter().zip(results) {
                match result {
                    Ok(Some(result)) => {
                        if let Some((start_us, dur_us)) = lane {
                            obs.record_span(
                                &format!("sweep/{}", cfg.run_id()),
                                "sweep/exec",
                                start_us,
                                dur_us,
                                &[
                                    ("run_id", Json::Str(cfg.run_id())),
                                    ("events", Json::U64(result.stats.events_processed)),
                                ],
                            );
                        }
                        stats.accumulate(&result.stats);
                    }
                    // Aborted by policy: persisted as terminal `aborted`,
                    // nothing to fold into the aggregate counters.
                    Ok(None) => aborted_now += 1,
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
            if let Some(e) = first_err {
                return Err(e);
            }
            // Apply the journaled bump, then retire the intent so a later
            // all-hit pass doesn't re-apply it.
            let mut j = journal.lock().unwrap_or_else(|p| p.into_inner());
            self.finish_bump(j.pending_generation)?;
            j.pending_generation = 0;
            // lint:allow(blocking_under_lock, reason="the worker pool has drained: this final persist retires the generation intent with no contending thread, and it must see the journal it just mutated")
            j.persist(&self.store)?;
        }
        let retries = retries.into_inner();
        if retries > 0 {
            obs.counter_add("sweep/retries", retries);
        }

        Ok(SweepOutcome {
            name: spec.name.clone(),
            sweep_id,
            workers: self.effective_workers(),
            configs: configs.len(),
            store_hits: hits.len(),
            store_misses: misses.len(),
            aborted: prior_aborted.len() + aborted_now,
            resumed_runs,
            retries,
            events_simulated: stats.events_processed,
            stats,
            run_ids,
            generation: self.store.generation(),
            wall: start.elapsed(),
        })
    }

    /// Raise `GENERATION` to a journaled absolute `target` if it is still
    /// below it (idempotent), returning whether it wrote.
    fn finish_bump(&self, target: u64) -> Result<bool, HrvizError> {
        let behind = self.store.generation() < target;
        if behind {
            self.store.set_generation(target)?;
        }
        Ok(behind)
    }

    /// Simulate one config with bounded retries, persisting lifecycle
    /// transitions as they happen. Returns the result (`None` when an
    /// abort policy cancelled the run — terminal, never retried) and how
    /// many retry attempts (beyond the first) were consumed.
    fn attempt_run(
        &self,
        cfg: &RunConfig,
        prov: &Provenance,
        opts: &SweepOptions,
        prior_attempts: u64,
        record: &(dyn Fn(&str, RunState, bool) -> Result<(), HrvizError> + Sync),
    ) -> (Result<Option<RunResult>, HrvizError>, u64) {
        let run_id = cfg.run_id();
        let mut last_err = None;
        let mut used = 0u64;
        for attempt in 1..=opts.max_attempts.max(1) {
            let total_attempt = prior_attempts + attempt as u64;
            if attempt > 1 {
                used += 1;
            }
            let delay = backoff_ms(opts, &run_id, total_attempt);
            if delay > 0 {
                std::thread::sleep(Duration::from_millis(delay));
            }
            let step = record(&run_id, RunState::Running, true)
                .and_then(|()| self.store.mark_running(cfg, prov))
                .and_then(|()| self.simulate(cfg, opts))
                .and_then(|outcome| match outcome {
                    StreamedOutcome::Completed(result) => {
                        self.store.save_with(cfg, &result, prov)?;
                        record(&run_id, RunState::Completed, false)?;
                        Ok(Some(result))
                    }
                    StreamedOutcome::Aborted { reason, .. } => {
                        self.store.mark_aborted(cfg, prov, &reason)?;
                        record(&run_id, RunState::Aborted, false)?;
                        hrviz_obs::get().counter_add("stream/runs_aborted", 1);
                        Ok(None)
                    }
                });
            match step {
                Ok(result) => return (Ok(result), used),
                Err(e) => {
                    let _ = self.store.mark_failed(cfg, prov, &e.to_string());
                    let _ = record(&run_id, RunState::Failed, false);
                    last_err = Some(e);
                }
            }
        }
        let err = last_err.unwrap_or_else(|| HrvizError::config("no attempts made"));
        (Err(err), used)
    }

    /// Run one config, streamed or not. Batch mode (`opts.stream` none)
    /// is exactly the classic path: no slice files, no progress
    /// watermark. Streamed mode seals slices into the run directory as
    /// the simulation crosses window boundaries and leaves a terminal
    /// watermark (`completed` / `aborted`) behind.
    fn simulate(
        &self,
        cfg: &RunConfig,
        opts: &SweepOptions,
    ) -> Result<StreamedOutcome<RunResult>, HrvizError> {
        let stream = match opts.stream {
            None => return cfg.execute().map(StreamedOutcome::Completed),
            Some(s) => s,
        };
        let run_id = cfg.run_id();
        let mut writer = SliceWriter::create(
            &self.store.run_dir(&run_id),
            &run_id,
            stream.window.as_nanos(),
            hrviz_obs::get(),
        )?;
        let mut policy = stream.abort.as_ref().map(AbortSpec::build);
        let mut sink = |slice: &Slice| -> Result<SliceControl, HrvizError> {
            writer.seal(slice)?;
            Ok(match policy.as_mut() {
                Some(p) => p.observe(slice),
                None => SliceControl::Continue,
            })
        };
        let outcome = cfg.execute_streamed(stream.window, &mut sink)?;
        match &outcome {
            StreamedOutcome::Completed(_) => writer.finish("completed")?,
            StreamedOutcome::Aborted { .. } => writer.finish("aborted")?,
        }
        Ok(outcome)
    }

    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }
}

/// What one [`SweepEngine::run`] call did.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Sweep name.
    pub name: String,
    /// Deterministic sweep id (journal key, manifest provenance).
    pub sweep_id: String,
    /// Worker threads used for the miss set.
    pub workers: usize,
    /// Total grid size.
    pub configs: usize,
    /// Configs already in the store (no simulation).
    pub store_hits: usize,
    /// Configs that had to be simulated.
    pub store_misses: usize,
    /// Configs cancelled by an early-abort policy — this sweep's plus
    /// prior terminal `aborted` runs in the grid (never re-simulated).
    pub aborted: usize,
    /// Misses that were retries of failed/orphaned runs (resume mode).
    pub resumed_runs: usize,
    /// In-process retry attempts consumed beyond each run's first.
    pub retries: u64,
    /// Events processed across all new simulations (0 for an all-hit
    /// sweep — the warm-cache assertion CI checks).
    pub events_simulated: u64,
    /// Folded engine counters for the new simulations.
    pub stats: EngineStats,
    /// Run ids of the full grid, in expansion order.
    pub run_ids: Vec<String>,
    /// Store generation after the sweep.
    pub generation: u64,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
}

impl SweepOutcome {
    /// JSON form of the outcome (this is a *report* artifact — unlike the
    /// store it includes wall-clock — so it lives outside the store root).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("sweep", Json::Str(self.name.clone())),
            ("sweep_id", Json::Str(self.sweep_id.clone())),
            ("workers", Json::U64(self.workers as u64)),
            ("configs", Json::U64(self.configs as u64)),
            ("store_hits", Json::U64(self.store_hits as u64)),
            ("store_misses", Json::U64(self.store_misses as u64)),
            ("aborted", Json::U64(self.aborted as u64)),
            ("resumed_runs", Json::U64(self.resumed_runs as u64)),
            ("retries", Json::U64(self.retries)),
            ("events_simulated", Json::U64(self.events_simulated)),
            ("end_time_ns", Json::U64(self.stats.end_time.as_nanos())),
            ("generation", Json::U64(self.generation)),
            ("wall_s", Json::F64(self.wall.as_secs_f64())),
            ("runs", Json::Arr(self.run_ids.iter().map(|r| Json::Str(r.clone())).collect())),
        ])
    }

    /// Write the report as `sweep_<name>.json` under `dir`.
    pub fn write(&self, dir: &Path) -> Result<PathBuf, HrvizError> {
        std::fs::create_dir_all(dir).map_err(|e| HrvizError::io(dir.display().to_string(), e))?;
        let path = dir.join(format!("sweep_{}.json", self.name));
        std::fs::write(&path, self.to_json().render() + "\n")
            .map_err(|e| HrvizError::io(path.display().to_string(), e))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologyAxis;
    use crate::store::{CrashMode, CrashPlan};
    use hrviz_network::RoutingAlgorithm;
    use hrviz_pdes::SimTime;
    use hrviz_workloads::TrafficPattern;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hrviz-sweep-eng-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn grid() -> SweepSpec {
        SweepSpec::new("grid", TopologyAxis::Dragonfly { terminals: 72 })
            .routings([RoutingAlgorithm::Minimal, RoutingAlgorithm::adaptive_default()])
            .patterns([TrafficPattern::UniformRandom, TrafficPattern::Tornado])
            .msgs_per_rank(2)
            .msg_bytes(1024)
            .period(SimTime::micros(1))
    }

    #[test]
    fn second_identical_sweep_is_all_hits_with_zero_events() {
        let root = tmp("warm");
        let engine = SweepEngine::new(RunStore::open(&root).unwrap()).with_workers(2);
        let cold = engine.run(&grid()).unwrap();
        assert_eq!(cold.configs, 4);
        assert_eq!(cold.store_misses, 4);
        assert_eq!(cold.store_hits, 0);
        assert!(cold.events_simulated > 0);
        assert_eq!(cold.generation, 1);
        assert_eq!(cold.retries, 0);

        let warm = engine.run(&grid()).unwrap();
        assert_eq!(warm.store_hits, 4);
        assert_eq!(warm.store_misses, 0);
        assert_eq!(warm.events_simulated, 0, "a warm sweep simulates nothing");
        assert_eq!(warm.generation, 1, "all-hit sweeps do not invalidate caches");
        assert_eq!(warm.run_ids, cold.run_ids);
        assert_eq!(warm.sweep_id, cold.sweep_id);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn an_all_hit_sweep_writes_nothing() {
        let root = tmp("all-hit-quiet");
        let cold = SweepEngine::new(RunStore::open(&root).unwrap()).run(&grid()).unwrap();
        let journal = root.join("sweeps").join(format!("{}.json", cold.sweep_id));
        let before = std::fs::read(&journal).unwrap();
        let mtime = || std::fs::metadata(&journal).unwrap().modified().unwrap();
        let stamp = mtime();
        std::thread::sleep(std::time::Duration::from_millis(20));

        let probe = CrashPlan::after_ops(u64::MAX, CrashMode::BeforeWrite);
        let store = RunStore::open(&root).unwrap().with_crash_plan(probe.clone());
        let warm = SweepEngine::new(store).run(&grid()).unwrap();
        assert_eq!(warm.store_hits, 4);
        assert_eq!(probe.ops_seen(), 0, "an all-hit sweep makes no store write");
        assert_eq!(std::fs::read(&journal).unwrap(), before);
        assert_eq!(mtime(), stamp, "the journal is not rewritten");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn widening_a_sweep_only_simulates_the_new_points() {
        let root = tmp("widen");
        let engine = SweepEngine::new(RunStore::open(&root).unwrap()).with_workers(2);
        let narrow = grid().seeds([42]);
        engine.run(&narrow).unwrap();
        let wide = grid().seeds([42, 43]);
        let out = engine.run(&wide).unwrap();
        assert_eq!(out.configs, 8);
        assert_eq!(out.store_hits, 4);
        assert_eq!(out.store_misses, 4);
        assert_eq!(out.generation, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn outcome_report_renders_and_writes() {
        let root = tmp("report");
        let engine = SweepEngine::new(RunStore::open(&root).unwrap()).with_workers(1);
        let spec = SweepSpec::new("one", TopologyAxis::FatTree { k: 4 })
            .msgs_per_rank(1)
            .msg_bytes(512)
            .period(SimTime::micros(1));
        let out = engine.run(&spec).unwrap();
        let text = out.to_json().render();
        assert!(text.contains("\"store_misses\":1"), "{text}");
        assert!(text.contains("\"retries\":0"), "{text}");
        let report_dir = root.join("reports");
        let path = out.write(&report_dir).unwrap();
        assert!(std::fs::read_to_string(path).unwrap().contains("\"sweep\":\"one\""));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn sweep_writes_journal_and_provenance() {
        let root = tmp("journal");
        let engine = SweepEngine::new(RunStore::open(&root).unwrap()).with_workers(1);
        let out = engine.run(&grid().seeds([42])).unwrap();
        let journal = SweepJournal::load(engine.store(), &out.sweep_id).unwrap();
        assert_eq!(journal.entries.len(), out.configs);
        assert!(journal.entries.values().all(|e| e.state == RunState::Completed));
        assert!(journal.entries.values().all(|e| e.attempts == 1));
        for run in &out.run_ids {
            let m = engine.store().load_manifest(run).unwrap();
            assert_eq!(m.created_by_sweep_id, out.sweep_id);
            assert_eq!(m.state, RunState::Completed);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn killed_sweep_resumes_byte_identically() {
        // Reference: an uninterrupted sweep.
        let clean_root = tmp("resume-clean");
        let clean = SweepEngine::new(RunStore::open(&clean_root).unwrap()).with_workers(1);
        clean.run(&grid()).unwrap();

        // Victim: die at the 5th budgeted store write (mid-grid), then
        // reopen (fsck) and resume.
        let root = tmp("resume-crash");
        let store = RunStore::open(&root)
            .unwrap()
            .with_crash_plan(CrashPlan::after_ops(5, CrashMode::TornTmp));
        let crashed = SweepEngine::new(store).with_workers(1).run(&grid());
        assert!(crashed.is_err(), "the injected crash must surface");

        let reopened = RunStore::open(&root).unwrap();
        let engine = SweepEngine::new(reopened).with_workers(1);
        let resumed = engine.run_with(&grid(), &SweepOptions::resume()).unwrap();
        assert!(resumed.store_hits > 0, "completed prefix must be reused");
        assert!(resumed.store_misses > 0, "interrupted tail must re-run");
        assert_eq!(resumed.store_hits + resumed.store_misses, 4);

        // Byte-identity over run directories + GENERATION.
        let runs_a = RunStore::open(&clean_root).unwrap().runs().unwrap();
        let runs_b = engine.store().runs().unwrap();
        assert_eq!(runs_a, runs_b);
        for run in &runs_a {
            for file in ["manifest.json", "columns.jsonl"] {
                let a = std::fs::read(clean_root.join(run).join(file)).unwrap();
                let b = std::fs::read(root.join(run).join(file)).unwrap();
                assert_eq!(a, b, "{run}/{file} diverged after resume");
            }
        }
        assert_eq!(
            std::fs::read(clean_root.join("GENERATION")).unwrap(),
            std::fs::read(root.join("GENERATION")).unwrap()
        );
        let _ = std::fs::remove_dir_all(&clean_root);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn crash_on_the_generation_bump_converges_on_resume() {
        // Reference sweep, instrumented to measure its total write budget.
        let clean_root = tmp("genbump-clean");
        let probe = CrashPlan::after_ops(u64::MAX, CrashMode::BeforeWrite);
        let store = RunStore::open(&clean_root).unwrap().with_crash_plan(probe.clone());
        SweepEngine::new(store).with_workers(1).run(&grid()).unwrap();
        assert!(!probe.triggered());
        // The last two budgeted writes are the GENERATION bump and the
        // journal's intent-clear — aim the crash at the bump itself, the
        // one boundary where every run is complete but caches are stale.
        let bump_op = probe.ops_seen() - 2;

        for mode in [CrashMode::BeforeWrite, CrashMode::TornTmp, CrashMode::BeforeRename] {
            let root = tmp(&format!("genbump-{mode:?}"));
            let plan = CrashPlan::after_ops(bump_op, mode);
            let store = RunStore::open(&root).unwrap().with_crash_plan(plan.clone());
            let crashed = SweepEngine::new(store).with_workers(1).run(&grid());
            assert!(crashed.is_err(), "{mode:?}: the injected crash must surface");
            assert!(plan.triggered(), "{mode:?}: crash must land on the bump");
            let reopened = RunStore::open(&root).unwrap();
            assert_eq!(reopened.generation(), 0, "{mode:?}: the bump must not have landed");

            let resumed = SweepEngine::new(reopened)
                .with_workers(1)
                .run_with(&grid(), &SweepOptions::resume())
                .unwrap();
            assert_eq!(resumed.store_hits, 4, "{mode:?}: nothing re-simulates");
            assert_eq!(resumed.store_misses, 0, "{mode:?}");
            assert_eq!(
                std::fs::read(clean_root.join("GENERATION")).unwrap(),
                std::fs::read(root.join("GENERATION")).unwrap(),
                "{mode:?}: resume must finish the journaled bump intent"
            );
            let _ = std::fs::remove_dir_all(&root);
        }
        let _ = std::fs::remove_dir_all(&clean_root);
    }

    #[test]
    fn a_legacy_journal_intent_is_finished_by_an_all_hit_sweep() {
        let root = tmp("legacy-journal");
        let engine = SweepEngine::new(RunStore::open(&root).unwrap()).with_workers(1);
        let cold = engine.run(&grid()).unwrap();
        assert_eq!(cold.generation, 1);
        // The journal an older release leaves when it dies exactly on the
        // `GENERATION` write: the intent spelled twice, the counter stale.
        let runs: Vec<String> = cold
            .run_ids
            .iter()
            .map(|r| format!("{{\"run\":\"{r}\",\"state\":\"completed\",\"attempts\":1}}"))
            .collect();
        let legacy = format!(
            "{{\"sweep_id\":\"{}\",\"name\":\"grid\",\"pending_generation\":1,\
             \"pending_shards\":[{{\"shard\":0,\"generation\":1}}],\"total\":4,\
             \"runs\":[{}]}}\n",
            cold.sweep_id,
            runs.join(",")
        );
        let parsed = SweepJournal::parse(&legacy).unwrap();
        assert_eq!(parsed.pending_generation, 1);
        assert_eq!(parsed.entries.len(), 4);
        std::fs::write(SweepJournal::path_in(engine.store(), &cold.sweep_id), &legacy).unwrap();
        engine.store().set_generation(0).unwrap();

        let warm = engine.run(&grid()).unwrap();
        assert_eq!(warm.store_hits, 4);
        assert_eq!(warm.generation, 1, "the all-hit pass finishes the journaled bump");
        assert_eq!(std::fs::read_to_string(root.join("GENERATION")).unwrap(), "1\n");
        let journal = SweepJournal::load(engine.store(), &cold.sweep_id).unwrap();
        assert_eq!(journal.pending_generation, 0, "the intent is retired");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn streamed_sweep_matches_batch_store_bytes() {
        let batch_root = tmp("stream-batch");
        let batch = SweepEngine::new(RunStore::open(&batch_root).unwrap()).with_workers(1);
        batch.run(&grid()).unwrap();

        let live_root = tmp("stream-live");
        let live = SweepEngine::new(RunStore::open(&live_root).unwrap()).with_workers(2);
        let opts = SweepOptions {
            stream: Some(StreamOptions { window: SimTime::micros(5), abort: None }),
            ..SweepOptions::default()
        };
        let out = live.run_with(&grid(), &opts).unwrap();
        assert_eq!(out.store_misses, 4);
        assert_eq!(out.aborted, 0);

        // Streaming is pure observation: every persisted artifact the
        // batch sweep wrote is byte-identical under the live sweep.
        let runs = live.store().runs().unwrap();
        assert_eq!(runs, batch.store().runs().unwrap());
        for run in &runs {
            for file in ["manifest.json", "columns.jsonl"] {
                let a = std::fs::read(batch_root.join(run).join(file)).unwrap();
                let b = std::fs::read(live_root.join(run).join(file)).unwrap();
                assert_eq!(a, b, "{run}/{file} diverged under streaming");
            }
            // Plus the live-only surfaces: a terminal watermark over ≥ 1
            // sealed slice, replayable from disk.
            let dir = live.store().run_dir(run);
            let progress = hrviz_stream::read_progress(&dir).unwrap().unwrap();
            assert_eq!(progress.state, "completed");
            assert!(progress.sealed >= 1, "{run}: no slices sealed");
            let slices = hrviz_stream::read_slices(&dir, 0).unwrap();
            assert_eq!(slices.len() as u64, progress.sealed);
            // Batch mode never grows these files.
            assert!(!batch_root.join(run).join("progress.json").exists());
        }

        // The streamed store reopens fsck-clean.
        let reopened = RunStore::open(&live_root).unwrap();
        assert!(reopened.last_fsck().unwrap().is_clean());
        let _ = std::fs::remove_dir_all(&batch_root);
        let _ = std::fs::remove_dir_all(&live_root);
    }

    #[test]
    fn abort_policy_cancels_runs_and_resume_never_retries_them() {
        let root = tmp("stream-abort");
        let engine = SweepEngine::new(RunStore::open(&root).unwrap()).with_workers(2);
        // With 200ns windows the first injections are still in flight at
        // the first boundary, so a demand for delivered == injected in
        // one window cancels every run almost immediately.
        let opts = SweepOptions {
            stream: Some(StreamOptions {
                window: SimTime(200),
                abort: Some(AbortSpec::parse("saturation:1000:1").unwrap()),
            }),
            ..SweepOptions::default()
        };
        let out = engine.run_with(&grid(), &opts).unwrap();
        assert_eq!(out.aborted, 4, "every run should be cancelled");
        assert_eq!(out.events_simulated, 0, "aborted runs fold no stats");

        // Aborted runs are terminal: manifests carry the reason, the
        // store holds no columns for them, and fsck stays clean.
        for (run, state) in engine.store().runs_by_state().unwrap() {
            assert_eq!(state, RunState::Aborted);
            assert!(!engine.store().contains(&run));
            let m = engine.store().load_manifest(&run).unwrap();
            assert!(m.error.contains("saturation"), "reason missing: {}", m.error);
            let progress =
                hrviz_stream::read_progress(&engine.store().run_dir(&run)).unwrap().unwrap();
            assert_eq!(progress.state, "aborted");
        }
        let reopened = RunStore::open(&root).unwrap();
        {
            let report = reopened.last_fsck().unwrap();
            assert!(report.is_clean(), "aborted runs must not dirty fsck");
            assert_eq!(report.aborted.len(), 4);
        }

        // A resume pass re-simulates nothing: aborted is not a miss.
        let resumed = SweepEngine::new(reopened)
            .with_workers(1)
            .run_with(&grid(), &SweepOptions { stream: opts.stream, ..SweepOptions::resume() })
            .unwrap();
        assert_eq!(resumed.store_misses, 0);
        assert_eq!(resumed.aborted, 4);
        assert_eq!(resumed.resumed_runs, 0);
        assert_eq!(resumed.events_simulated, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let opts = SweepOptions::resume();
        assert_eq!(backoff_ms(&opts, "a", 1), 0, "first attempts start immediately");
        let d2 = backoff_ms(&opts, "a", 2);
        let d3 = backoff_ms(&opts, "a", 3);
        assert!(d2 >= opts.backoff_base_ms && d2 < 2 * opts.backoff_base_ms);
        assert!(d3 > d2, "backoff must grow");
        assert_eq!(d2, backoff_ms(&opts, "a", 2), "same inputs, same delay");
        assert_ne!(backoff_ms(&opts, "a", 2), backoff_ms(&opts, "b", 2), "jitter is per-run");
        for attempt in 1..100 {
            assert!(backoff_ms(&opts, "a", attempt) <= opts.backoff_max_ms);
        }
    }
}
