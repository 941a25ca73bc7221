//! The content-addressed columnar run store.
//!
//! Every executed [`RunConfig`](crate::RunConfig) lands under
//! `<root>/<run-id>/` where `run-id` is the 16-hex-digit fingerprint of the
//! config's canonical string. A run directory holds up to two files:
//!
//! * `manifest.json` — flat JSON with the canonical string, counters, byte
//!   totals, the run's lifecycle [`RunState`], provenance (code
//!   fingerprint, fault-schedule hash, creating sweep id) and two FNV-1a
//!   checksums (one over the manifest body, one over the column file).
//!   **No wall-clock fields**: serial and parallel sweeps of the same grid
//!   must produce byte-identical stores.
//! * `columns.jsonl` — the [`DataSet`]'s stored columns: line 1 is a header with
//!   the job names and time range, then one line per stored column in
//!   schema order (`{"table":…,"field":…,"values":[…]}`). Floats render
//!   via Rust's shortest-round-trip `Display` and parse back with
//!   `str::parse::<f64>`, so the JSONL round-trip is bit-exact.
//!
//! ## Crash safety
//!
//! Every file the store writes — manifests, column files, the root
//! `GENERATION` counter, fsck reports — goes through one atomic path:
//! write `<file>.<pid>.<seq>.tmp`, `fsync`, `rename`, best-effort
//! directory `fsync`. A `kill -9` therefore leaves either the old bytes or
//! the new bytes, never a torn file (at worst a stray `.tmp`, which
//! [`RunStore::fsck`] reaps once its writer process is gone, so concurrent
//! openers never delete each other's in-flight writes).
//! [`RunStore::open`] runs the recovery pass: torn or
//! checksum-failed runs move to `<store>/quarantine/`, orphaned
//! `running`/`failed` runs are reported for `--resume` to retry, and the
//! structured [`FsckReport`] is persisted as `<store>/fsck_report.json`.
//!
//! The store keeps one `GENERATION` counter at its root, bumped once per
//! sweep that executed at least one new run. [`RunStore::data_key`]
//! folds it into the [`DataKey`] used by the analytics-side
//! [`AggregateCache`](hrviz_core::AggregateCache), so cached aggregates
//! are invalidated when the store contents move under them.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use hrviz_core::{schema_of, DataKey, DataSet, EntityKind, Field, StoredColumns};
use hrviz_faults::HrvizError;
use hrviz_obs::{Json, ObjectReader};
use hrviz_pdes::SimTime;
use hrviz_stream::fsio::{atomic_write, reapable, tmp_path_of};

use crate::spec::{RunConfig, RunResult};

/// Manifest format version, folded into [`code_fingerprint`].
const MANIFEST_VERSION: u32 = 2;

/// The writer identity recorded in every manifest: crate version plus
/// manifest format version. Deterministic for a given binary, so resumed
/// sweeps write bytes identical to uninterrupted ones.
pub fn code_fingerprint() -> String {
    format!("hrviz-sweep@{}+manifest-v{MANIFEST_VERSION}", env!("CARGO_PKG_VERSION"))
}

/// Lifecycle state of a stored run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunState {
    /// Claimed by a sweep journal but not yet started.
    Queued,
    /// A worker is (or was, if the process died) simulating it.
    Running,
    /// Fully persisted: manifest + column file, checksums valid.
    Completed,
    /// The simulation or persist step failed; the manifest carries the error.
    Failed,
    /// Cancelled mid-run by an early-abort policy; the manifest's error
    /// field carries the reason. Terminal: never retried by `--resume`
    /// and excluded from comparisons by default.
    Aborted,
}

impl RunState {
    /// Stable lowercase name used in manifests and journals.
    pub fn name(self) -> &'static str {
        match self {
            RunState::Queued => "queued",
            RunState::Running => "running",
            RunState::Completed => "completed",
            RunState::Failed => "failed",
            RunState::Aborted => "aborted",
        }
    }

    /// Inverse of [`RunState::name`].
    pub fn parse(s: &str) -> Option<RunState> {
        match s {
            "queued" => Some(RunState::Queued),
            "running" => Some(RunState::Running),
            "completed" => Some(RunState::Completed),
            "failed" => Some(RunState::Failed),
            "aborted" => Some(RunState::Aborted),
            _ => None,
        }
    }
}

/// Provenance recorded into every manifest the store writes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Provenance {
    /// Deterministic id of the sweep that created the run (empty for
    /// direct [`RunStore::save`] calls outside a sweep).
    pub sweep_id: String,
}

/// Health of one run id, as cheap to compute as possible (reads the
/// manifest but never the column file).
#[derive(Clone, Debug, PartialEq)]
pub enum RunHealth {
    /// No run directory exists.
    Missing,
    /// A lifecycle manifest exists but the run has no servable data
    /// (queued / running / failed) — retryable by `sweep --resume`.
    Pending(RunState),
    /// The directory exists but its contents are torn or fail validation.
    Corrupt(String),
    /// Manifest state `completed` with the column file present.
    Complete,
}

/// A directory of content-addressed runs.
#[derive(Clone, Debug)]
pub struct RunStore {
    root: PathBuf,
    crash: Option<Arc<CrashPlan>>,
    last_fsck: Option<Arc<FsckReport>>,
}

/// The persisted per-run manifest (everything except the tables).
#[derive(Clone, Debug, PartialEq)]
pub struct StoredManifest {
    /// Run id (16 hex digits of the config hash).
    pub run: String,
    /// The config's canonical string.
    pub canonical: String,
    /// Human-readable label.
    pub label: String,
    /// RNG seed.
    pub seed: u64,
    /// Lifecycle state.
    pub state: RunState,
    /// Writer identity ([`code_fingerprint`]).
    pub code_fingerprint: String,
    /// Fingerprint of the fault schedule contents (`"0"` for healthy runs).
    pub fault_hash: String,
    /// Id of the sweep that created the run (empty outside sweeps).
    pub created_by_sweep_id: String,
    /// Failure description (empty unless `state` is `failed`).
    pub error: String,
    /// Events the engine processed.
    pub events_processed: u64,
    /// Events the engine scheduled (0 for runners that don't report it).
    pub events_scheduled: u64,
    /// Simulated end time, nanoseconds.
    pub end_time_ns: u64,
    /// Engine queue high-water mark.
    pub peak_queue_depth: u64,
    /// Bytes delivered.
    pub delivered: u64,
    /// Bytes injected.
    pub injected: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Packets rerouted.
    pub rerouted: u64,
    /// FNV-1a of `columns.jsonl` (empty until `completed`).
    pub columns_checksum: String,
}

/// A run loaded back from the store.
#[derive(Clone, Debug)]
pub struct StoredRun {
    /// The manifest.
    pub manifest: StoredManifest,
    /// The dataset, decoded straight into its typed columns.
    pub data: DataSet,
}

/// Structured result of a [`RunStore::fsck`] recovery pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FsckReport {
    /// Run directories examined.
    pub scanned: usize,
    /// Runs with a valid completed manifest and matching column checksum.
    pub completed: usize,
    /// Runs still marked `queued` (claimed but never started).
    pub queued: Vec<String>,
    /// Runs marked `running` with no live worker — a crashed sweep's
    /// in-flight tail, retried by `sweep --resume`.
    pub running_orphans: Vec<String>,
    /// Runs marked `failed`, retried by `sweep --resume`.
    pub failed: Vec<String>,
    /// Runs cancelled by an early-abort policy. Terminal and intentional:
    /// they never dirty [`FsckReport::is_clean`] and `--resume` leaves
    /// them alone.
    pub aborted: Vec<String>,
    /// `(run, reason)` for every directory moved to `<store>/quarantine/`.
    pub quarantined: Vec<(String, String)>,
    /// Stray `.tmp` files removed.
    pub tmp_removed: usize,
    /// The generation counter observed (after any reset).
    pub generation: u64,
    /// Whether an unparseable `GENERATION` file had to be reset to 0.
    pub generation_reset: bool,
}

impl FsckReport {
    /// A store with nothing to recover: no quarantines, no orphans, no
    /// failed runs, and an intact generation counter.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
            && self.running_orphans.is_empty()
            && self.failed.is_empty()
            && self.queued.is_empty()
            && !self.generation_reset
    }

    /// JSON form (persisted as `<store>/fsck_report.json`; deterministic —
    /// no wall-clock fields).
    pub fn to_json(&self) -> Json {
        let strs = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
        Json::obj([
            ("clean", Json::U64(self.is_clean() as u64)),
            ("scanned", Json::U64(self.scanned as u64)),
            ("completed", Json::U64(self.completed as u64)),
            ("queued", strs(&self.queued)),
            ("running_orphans", strs(&self.running_orphans)),
            ("failed", strs(&self.failed)),
            ("aborted", strs(&self.aborted)),
            (
                "quarantined",
                Json::Arr(
                    self.quarantined
                        .iter()
                        .map(|(run, reason)| {
                            Json::obj([
                                ("run", Json::Str(run.clone())),
                                ("reason", Json::Str(reason.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("tmp_removed", Json::U64(self.tmp_removed as u64)),
            ("generation", Json::U64(self.generation)),
            ("generation_reset", Json::U64(self.generation_reset as u64)),
        ])
    }
}

/// Where a [`CrashPlan`] simulates the `kill -9` relative to the write op
/// it triggers on.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashMode {
    /// Die before anything touches disk.
    BeforeWrite,
    /// Die mid-write: a torn `.tmp` file is left behind.
    TornTmp,
    /// Die after the `.tmp` is fully written but before the rename.
    BeforeRename,
}

/// Test-only fail-point: counts budgeted store writes (manifests, column
/// files, generation bumps, journals) and simulates a process death at the
/// chosen boundary. After triggering, every further budgeted write fails —
/// the "process" is dead.
#[doc(hidden)]
#[derive(Debug)]
pub struct CrashPlan {
    countdown: AtomicU64,
    seen: AtomicU64,
    mode: CrashMode,
    dead: AtomicBool,
}

impl CrashPlan {
    /// Crash at the `ops`-th budgeted write (0 = the very first).
    pub fn after_ops(ops: u64, mode: CrashMode) -> Arc<CrashPlan> {
        Arc::new(CrashPlan {
            countdown: AtomicU64::new(ops),
            seen: AtomicU64::new(0),
            mode,
            dead: AtomicBool::new(false),
        })
    }

    /// Whether the simulated crash has happened.
    pub fn triggered(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Budgeted writes attempted so far (including the fatal one). A plan
    /// with an unreachable `ops` measures a save path's total write budget.
    pub fn ops_seen(&self) -> u64 {
        self.seen.load(Ordering::SeqCst)
    }
}

/// Whether `name` looks like a run directory (16 lowercase hex digits).
fn is_run_id(name: &str) -> bool {
    name.len() == 16 && name.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

impl RunStore {
    /// Open (creating if needed) a store rooted at `root`, running the
    /// [`RunStore::fsck`] recovery pass. The pass's report is retained on
    /// the handle ([`RunStore::last_fsck`]). A root that holds a `SHARDS`
    /// file was laid out by an older release; opening it is a
    /// configuration error, raised before anything is written.
    pub fn open(root: impl Into<PathBuf>) -> Result<RunStore, HrvizError> {
        let root = root.into();
        let layout = root.join("SHARDS");
        if layout.exists() {
            return Err(HrvizError::config(format!(
                "store at {} holds {}: sharded stores are no longer supported",
                root.display(),
                layout.display()
            )));
        }
        fs::create_dir_all(&root).map_err(|e| HrvizError::io(root.display().to_string(), e))?;
        let mut store = RunStore { root, crash: None, last_fsck: None };
        let report = store.fsck()?;
        store.last_fsck = Some(Arc::new(report));
        Ok(store)
    }

    /// Attach a crash-injection plan (test support; see [`CrashPlan`]).
    #[doc(hidden)]
    pub fn with_crash_plan(mut self, plan: Arc<CrashPlan>) -> RunStore {
        self.crash = Some(plan);
        self
    }

    /// The report of the fsck pass run when this handle was opened.
    pub fn last_fsck(&self) -> Option<&FsckReport> {
        self.last_fsck.as_deref()
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where sweep journals live.
    pub fn sweeps_dir(&self) -> PathBuf {
        self.root.join("sweeps")
    }

    /// Where engine checkpoints live.
    pub fn checkpoints_dir(&self) -> PathBuf {
        self.root.join("checkpoints")
    }

    /// Where quarantined runs land.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    /// The directory a run lives (or would live) in. Streamed runs keep
    /// their `slices/` segments and `progress.json` watermark here next to
    /// the manifest, so live readers (serve, `hrviz watch`) resolve paths
    /// through this.
    pub fn run_dir(&self, run_id: &str) -> PathBuf {
        self.root.join(run_id)
    }

    /// One budgeted (crash-injectable) or unbudgeted atomic write.
    /// Recovery-side writes (fsck reports, generation resets) are
    /// unbudgeted: the fail-point models death of the *save* path.
    pub(crate) fn write_atomic(
        &self,
        path: &Path,
        bytes: &[u8],
        budgeted: bool,
    ) -> Result<(), HrvizError> {
        if budgeted {
            self.crash_gate(path, bytes)?;
        }
        atomic_write(path, bytes)
    }

    /// Simulate the configured crash, if this op is the chosen boundary.
    fn crash_gate(&self, path: &Path, bytes: &[u8]) -> Result<(), HrvizError> {
        let Some(plan) = &self.crash else { return Ok(()) };
        let died = |msg: &str| {
            HrvizError::io(path.display().to_string(), std::io::Error::other(msg.to_string()))
        };
        if plan.dead.load(Ordering::SeqCst) {
            return Err(died("simulated crash: process already dead"));
        }
        plan.seen.fetch_add(1, Ordering::SeqCst);
        let survived = plan
            .countdown
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok();
        if survived {
            return Ok(());
        }
        plan.dead.store(true, Ordering::SeqCst);
        match plan.mode {
            CrashMode::BeforeWrite => {}
            CrashMode::TornTmp => {
                if let Ok(tmp) = tmp_path_of(path) {
                    let _ = fs::write(tmp, &bytes[..bytes.len() / 2]);
                }
            }
            CrashMode::BeforeRename => {
                if let Ok(tmp) = tmp_path_of(path) {
                    let _ = fs::write(tmp, bytes);
                }
            }
        }
        Err(died("simulated crash during store write"))
    }

    /// The store generation. `0` for a fresh store.
    pub fn generation(&self) -> u64 {
        fs::read_to_string(self.root.join("GENERATION"))
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0)
    }

    /// Advance the counter atomically, returning the new generation. A
    /// crash mid-bump leaves the old counter, never a torn one.
    pub fn bump_generation(&self) -> Result<u64, HrvizError> {
        let next = self.generation() + 1;
        self.set_generation(next)?;
        Ok(next)
    }

    /// Write an explicit value into the counter (budgeted, atomic).
    /// Idempotent, so sweep resume can finish a bump whose intent was
    /// journaled before a crash landed exactly on the `GENERATION` write.
    pub fn set_generation(&self, value: u64) -> Result<(), HrvizError> {
        self.write_atomic(&self.root.join("GENERATION"), format!("{value}\n").as_bytes(), true)
    }

    /// Classify one run id. Reads (and validates) the manifest but not the
    /// column file — the full checksum pass is [`RunStore::fsck`]'s job.
    pub fn health(&self, run_id: &str) -> RunHealth {
        let dir = self.run_dir(run_id);
        if !dir.is_dir() {
            return RunHealth::Missing;
        }
        let man_path = dir.join("manifest.json");
        let text = match fs::read_to_string(&man_path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return RunHealth::Corrupt("manifest.json missing".into());
            }
            Err(e) => return RunHealth::Corrupt(format!("manifest unreadable: {e}")),
        };
        let manifest = match parse_manifest(&text) {
            Ok(m) => m,
            Err(e) => return RunHealth::Corrupt(format!("manifest invalid: {e}")),
        };
        match manifest.state {
            RunState::Completed => {
                if dir.join("columns.jsonl").is_file() {
                    RunHealth::Complete
                } else {
                    RunHealth::Corrupt("columns.jsonl missing for a completed run".into())
                }
            }
            state => RunHealth::Pending(state),
        }
    }

    /// Whether the store already holds a complete run for `run_id`.
    pub fn contains(&self, run_id: &str) -> bool {
        matches!(self.health(run_id), RunHealth::Complete)
    }

    /// The aggregation-cache key for a config against the current store
    /// contents: config hash + store generation.
    pub fn data_key(&self, cfg: &RunConfig) -> DataKey {
        DataKey { run: cfg.hash(), generation: self.generation() }
    }

    /// Ids of every complete run in the store, sorted.
    pub fn runs(&self) -> Result<Vec<String>, HrvizError> {
        let mut out = self.run_dir_names()?;
        out.retain(|name| self.contains(name));
        Ok(out)
    }

    /// Every manifested run with its lifecycle state, sorted by id. Runs
    /// whose manifest is torn or missing are skipped — this is the
    /// listing surface for serve's `?state=` filter, not a recovery pass.
    pub fn runs_by_state(&self) -> Result<Vec<(String, RunState)>, HrvizError> {
        let mut out = Vec::new();
        for name in self.run_dir_names()? {
            match self.health(&name) {
                RunHealth::Complete => out.push((name, RunState::Completed)),
                RunHealth::Pending(state) => out.push((name, state)),
                RunHealth::Missing | RunHealth::Corrupt(_) => {}
            }
        }
        Ok(out)
    }

    /// Names of every run-shaped directory under the root, sorted. Reads
    /// nothing but the directory listing, so callers can stat-validate
    /// live surfaces (progress watermarks) without parsing a single
    /// manifest.
    pub fn run_dir_names(&self) -> Result<Vec<String>, HrvizError> {
        let dir = &self.root;
        let entries = match fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(_) if !dir.is_dir() => return Ok(Vec::new()),
            Err(e) => return Err(HrvizError::io(dir.display().to_string(), e)),
        };
        let mut out = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| HrvizError::io(dir.display().to_string(), e))?;
            if let Some(name) = entry.file_name().to_str() {
                // The directory bit comes with the entry: no stat per run.
                if is_run_id(name) && entry.file_type().is_ok_and(|t| t.is_dir()) {
                    out.push(name.to_string());
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Persist one executed run (no sweep provenance).
    pub fn save(&self, cfg: &RunConfig, result: &RunResult) -> Result<PathBuf, HrvizError> {
        self.save_with(cfg, result, &Provenance::default())
    }

    /// Persist one executed run with provenance. The column file is
    /// written (atomically) before the `completed` manifest, so a crash at
    /// any boundary never yields a run that passes [`RunStore::contains`].
    pub fn save_with(
        &self,
        cfg: &RunConfig,
        result: &RunResult,
        prov: &Provenance,
    ) -> Result<PathBuf, HrvizError> {
        let dir = self.run_dir(&cfg.run_id());
        fs::create_dir_all(&dir).map_err(|e| HrvizError::io(dir.display().to_string(), e))?;
        let columns = columns_jsonl(&result.dataset);
        self.write_atomic(&dir.join("columns.jsonl"), columns.as_bytes(), true)?;
        let manifest = completed_manifest(cfg, result, prov, checksum_of(&columns));
        self.write_atomic(&dir.join("manifest.json"), manifest_text(&manifest).as_bytes(), true)?;
        Ok(dir)
    }

    /// Record that a worker is about to simulate `cfg` (state `running`).
    /// A crash between here and [`RunStore::save_with`] leaves an orphaned
    /// `running` manifest that fsck reports and `--resume` retries.
    pub fn mark_running(&self, cfg: &RunConfig, prov: &Provenance) -> Result<(), HrvizError> {
        self.write_lifecycle(cfg, prov, RunState::Running, "")
    }

    /// Record that simulating `cfg` failed, with the error text.
    pub fn mark_failed(
        &self,
        cfg: &RunConfig,
        prov: &Provenance,
        error: &str,
    ) -> Result<(), HrvizError> {
        self.write_lifecycle(cfg, prov, RunState::Failed, error)
    }

    /// Record that an early-abort policy cancelled `cfg` mid-run, with the
    /// policy's reason. Aborted is terminal: `--resume` never retries it.
    pub fn mark_aborted(
        &self,
        cfg: &RunConfig,
        prov: &Provenance,
        reason: &str,
    ) -> Result<(), HrvizError> {
        self.write_lifecycle(cfg, prov, RunState::Aborted, reason)
    }

    fn write_lifecycle(
        &self,
        cfg: &RunConfig,
        prov: &Provenance,
        state: RunState,
        error: &str,
    ) -> Result<(), HrvizError> {
        let dir = self.run_dir(&cfg.run_id());
        fs::create_dir_all(&dir).map_err(|e| HrvizError::io(dir.display().to_string(), e))?;
        let manifest = lifecycle_manifest(cfg, prov, state, error);
        self.write_atomic(&dir.join("manifest.json"), manifest_text(&manifest).as_bytes(), true)
    }

    /// Load just a run's manifest — cheap relative to [`RunStore::load`],
    /// which also parses the columnar tables. Listing endpoints and cache
    /// keys only need this.
    pub fn load_manifest(&self, run_id: &str) -> Result<StoredManifest, HrvizError> {
        let man_path = self.run_dir(run_id).join("manifest.json");
        let man_text = fs::read_to_string(&man_path)
            .map_err(|e| HrvizError::io(man_path.display().to_string(), e))?;
        parse_manifest(&man_text).map_err(|e| HrvizError::parse(man_path.display().to_string(), e))
    }

    /// Load a run back from the store, verifying the column checksum.
    ///
    /// FNV-1a is one serial multiply chain, so the checksum runs on a
    /// second thread while this one decodes. A mismatch is reported
    /// before any parse error, as if it had run first.
    pub fn load(&self, run_id: &str) -> Result<StoredRun, HrvizError> {
        let dir = self.run_dir(run_id);
        let manifest = self.load_manifest(run_id)?;
        let col_path = dir.join("columns.jsonl");
        if manifest.state != RunState::Completed {
            return Err(HrvizError::parse(
                col_path.display().to_string(),
                format!("run is {}, not completed", manifest.state.name()),
            ));
        }
        let col_text = fs::read_to_string(&col_path)
            .map_err(|e| HrvizError::io(col_path.display().to_string(), e))?;
        let (got, parsed) = std::thread::scope(|s| {
            let sum = s.spawn(|| checksum_of(&col_text));
            let parsed = parse_columns(&col_text);
            (sum.join().expect("hashing a string cannot panic"), parsed)
        });
        if got != manifest.columns_checksum {
            return Err(HrvizError::parse(
                col_path.display().to_string(),
                format!(
                    "columns checksum mismatch: manifest says {}, file is {got}",
                    manifest.columns_checksum
                ),
            ));
        }
        let data = parsed.map_err(|e| HrvizError::parse(col_path.display().to_string(), e))?;
        Ok(StoredRun { manifest, data })
    }

    /// Recovery pass: reap stray `.tmp` files, verify every run's manifest
    /// and column checksum, quarantine torn/corrupt runs under
    /// `<store>/quarantine/`, report (but keep) orphaned
    /// `queued`/`running`/`failed` runs for `--resume`, and repair an
    /// unparseable `GENERATION` counter. The structured report is also
    /// persisted as `<store>/fsck_report.json`.
    pub fn fsck(&self) -> Result<FsckReport, HrvizError> {
        let mut report =
            FsckReport { tmp_removed: self.reap_tmp(&self.root)?, ..FsckReport::default() };
        for aux in [self.sweeps_dir(), self.checkpoints_dir()] {
            if aux.is_dir() {
                report.tmp_removed += self.reap_tmp(&aux)?;
            }
        }
        for run in self.run_dir_names()? {
            let dir = self.run_dir(&run);
            report.tmp_removed += self.reap_tmp(&dir)?;
            // Streamed runs keep slice segments in a subdirectory; a
            // crash mid-seal leaves its stray tmp there.
            let slices = dir.join("slices");
            if slices.is_dir() {
                report.tmp_removed += self.reap_tmp(&slices)?;
            }
            report.scanned += 1;
            match self.health(&run) {
                RunHealth::Missing => {}
                RunHealth::Complete => match self.verify_columns(&run) {
                    Ok(()) => report.completed += 1,
                    Err(reason) => self.quarantine(&run, reason, &mut report)?,
                },
                RunHealth::Pending(RunState::Queued) => report.queued.push(run),
                RunHealth::Pending(RunState::Running) => report.running_orphans.push(run),
                RunHealth::Pending(RunState::Failed) => report.failed.push(run),
                RunHealth::Pending(RunState::Aborted) => report.aborted.push(run),
                RunHealth::Pending(RunState::Completed) => {}
                RunHealth::Corrupt(reason) => self.quarantine(&run, reason, &mut report)?,
            }
        }
        let gen_path = self.root.join("GENERATION");
        if let Ok(text) = fs::read_to_string(&gen_path) {
            match text.trim().parse::<u64>() {
                Ok(g) => report.generation = g,
                Err(_) => {
                    self.write_atomic(&gen_path, b"0\n", false)?;
                    report.generation_reset = true;
                }
            }
        }
        self.write_atomic(
            &self.root.join("fsck_report.json"),
            (report.to_json().render() + "\n").as_bytes(),
            false,
        )?;
        let obs = hrviz_obs::get();
        obs.counter_add("store/fsck_runs", 1);
        obs.counter_add("store/quarantined", report.quarantined.len() as u64);
        obs.counter_add("store/fsck_orphans", report.running_orphans.len() as u64);
        obs.counter_add("store/fsck_tmp_removed", report.tmp_removed as u64);
        Ok(report)
    }

    /// Full column verification for a `Complete` run (fsck only).
    fn verify_columns(&self, run_id: &str) -> Result<(), String> {
        let manifest = self.load_manifest(run_id).map_err(|e| format!("manifest: {e}"))?;
        let col_path = self.run_dir(run_id).join("columns.jsonl");
        let col_text =
            fs::read_to_string(&col_path).map_err(|e| format!("columns unreadable: {e}"))?;
        let got = checksum_of(&col_text);
        if got != manifest.columns_checksum {
            return Err(format!(
                "columns checksum mismatch: manifest says {}, file is {got}",
                manifest.columns_checksum
            ));
        }
        Ok(())
    }

    /// Move a run directory to `<store>/quarantine/<run>` and record why.
    fn quarantine(
        &self,
        run: &str,
        reason: String,
        report: &mut FsckReport,
    ) -> Result<(), HrvizError> {
        let src = self.run_dir(run);
        let qdir = self.quarantine_dir();
        fs::create_dir_all(&qdir).map_err(|e| HrvizError::io(qdir.display().to_string(), e))?;
        let dest = qdir.join(run);
        if dest.exists() {
            fs::remove_dir_all(&dest).map_err(|e| HrvizError::io(dest.display().to_string(), e))?;
        }
        fs::rename(&src, &dest).map_err(|e| HrvizError::io(src.display().to_string(), e))?;
        report.quarantined.push((run.to_string(), reason));
        Ok(())
    }

    /// Remove the `*.tmp` files directly under `dir` that no live writer
    /// can still rename ([`reapable`]), returning how many.
    fn reap_tmp(&self, dir: &Path) -> Result<usize, HrvizError> {
        let mut removed = 0;
        let entries =
            fs::read_dir(dir).map_err(|e| HrvizError::io(dir.display().to_string(), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| HrvizError::io(dir.display().to_string(), e))?;
            let path = entry.path();
            if !reapable(&path) || !path.is_file() {
                continue;
            }
            match fs::remove_file(&path) {
                Ok(()) => removed += 1,
                // A concurrent fsck reaped it first.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(HrvizError::io(path.display().to_string(), e)),
            }
        }
        Ok(removed)
    }
}

/// 16-hex FNV-1a of file contents.
fn checksum_of(text: &str) -> String {
    format!("{:016x}", hrviz_obs::fingerprint64(text))
}

fn completed_manifest(
    cfg: &RunConfig,
    result: &RunResult,
    prov: &Provenance,
    columns_checksum: String,
) -> StoredManifest {
    StoredManifest {
        run: cfg.run_id(),
        canonical: cfg.canonical(),
        label: cfg.label(),
        seed: cfg.seed,
        state: RunState::Completed,
        code_fingerprint: code_fingerprint(),
        fault_hash: cfg.fault_hash(),
        created_by_sweep_id: prov.sweep_id.clone(),
        error: String::new(),
        events_processed: result.stats.events_processed,
        events_scheduled: result.stats.events_scheduled,
        end_time_ns: result.stats.end_time.as_nanos(),
        peak_queue_depth: result.stats.peak_queue_depth,
        delivered: result.delivered,
        injected: result.injected,
        dropped: result.dropped,
        rerouted: result.rerouted,
        columns_checksum,
    }
}

fn lifecycle_manifest(
    cfg: &RunConfig,
    prov: &Provenance,
    state: RunState,
    error: &str,
) -> StoredManifest {
    StoredManifest {
        run: cfg.run_id(),
        canonical: cfg.canonical(),
        label: cfg.label(),
        seed: cfg.seed,
        state,
        code_fingerprint: code_fingerprint(),
        fault_hash: cfg.fault_hash(),
        created_by_sweep_id: prov.sweep_id.clone(),
        error: error.to_string(),
        events_processed: 0,
        events_scheduled: 0,
        end_time_ns: 0,
        peak_queue_depth: 0,
        delivered: 0,
        injected: 0,
        dropped: 0,
        rerouted: 0,
        columns_checksum: String::new(),
    }
}

/// Render a manifest with the given value in the `checksum` slot. The
/// body checksum is FNV-1a over this rendering with an empty slot, so
/// parse → re-render → compare detects any torn or edited manifest.
fn render_manifest(m: &StoredManifest, checksum: &str) -> String {
    Json::obj([
        ("run", Json::Str(m.run.clone())),
        ("canonical", Json::Str(m.canonical.clone())),
        ("label", Json::Str(m.label.clone())),
        ("seed", Json::U64(m.seed)),
        ("state", Json::Str(m.state.name().to_string())),
        ("code_fingerprint", Json::Str(m.code_fingerprint.clone())),
        ("fault_hash", Json::Str(m.fault_hash.clone())),
        ("created_by_sweep_id", Json::Str(m.created_by_sweep_id.clone())),
        ("error", Json::Str(m.error.clone())),
        ("events_processed", Json::U64(m.events_processed)),
        ("events_scheduled", Json::U64(m.events_scheduled)),
        ("end_time_ns", Json::U64(m.end_time_ns)),
        ("peak_queue_depth", Json::U64(m.peak_queue_depth)),
        ("delivered", Json::U64(m.delivered)),
        ("injected", Json::U64(m.injected)),
        ("dropped", Json::U64(m.dropped)),
        ("rerouted", Json::U64(m.rerouted)),
        ("columns_checksum", Json::Str(m.columns_checksum.clone())),
        ("checksum", Json::Str(checksum.to_string())),
    ])
    .render()
        + "\n"
}

/// The exact file bytes for a manifest: body rendered with its own
/// checksum filled in.
fn manifest_text(m: &StoredManifest) -> String {
    let body = render_manifest(m, "");
    render_manifest(m, &checksum_of(&body))
}

fn parse_manifest(text: &str) -> Result<StoredManifest, String> {
    let v = Json::parse(text)?;
    let s = |key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("manifest missing string field {key:?}"))
    };
    let n = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("manifest missing numeric field {key:?}"))
    };
    let state_name = s("state")?;
    let state =
        RunState::parse(&state_name).ok_or_else(|| format!("unknown run state {state_name:?}"))?;
    let m = StoredManifest {
        run: s("run")?,
        canonical: s("canonical")?,
        label: s("label")?,
        seed: n("seed")?,
        state,
        code_fingerprint: s("code_fingerprint")?,
        fault_hash: s("fault_hash")?,
        created_by_sweep_id: s("created_by_sweep_id")?,
        error: s("error")?,
        events_processed: n("events_processed")?,
        events_scheduled: n("events_scheduled")?,
        end_time_ns: n("end_time_ns")?,
        peak_queue_depth: n("peak_queue_depth")?,
        delivered: n("delivered")?,
        injected: n("injected")?,
        dropped: n("dropped")?,
        rerouted: n("rerouted")?,
        columns_checksum: s("columns_checksum")?,
    };
    let claimed = s("checksum")?;
    let expected = checksum_of(&render_manifest(&m, ""));
    if claimed != expected {
        return Err(format!("manifest checksum mismatch: stored {claimed}, computed {expected}"));
    }
    Ok(m)
}

fn columns_jsonl(ds: &DataSet) -> String {
    let mut out = String::new();
    let header = Json::obj([
        ("jobs", Json::Arr(ds.jobs.iter().map(|j| Json::Str(j.clone())).collect())),
        (
            "time_range",
            match ds.time_range {
                None => Json::Null,
                Some((s, e)) => Json::Arr(vec![Json::U64(s.as_nanos()), Json::U64(e.as_nanos())]),
            },
        ),
    ]);
    out.push_str(&header.render());
    out.push('\n');
    // The four tables in file order, each column in schema order.
    for kind in EntityKind::ALL {
        for field in schema_of(kind) {
            let values = ds.column(kind, field);
            let values = (0..values.len()).map(|i| Json::F64(values.get(i))).collect();
            let line = Json::obj([
                ("table", Json::Str(kind.name().to_string())),
                ("field", Json::Str(field.name().to_string())),
                ("values", Json::Arr(values)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
    }
    out
}

fn parse_columns(text: &str) -> Result<DataSet, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = Json::parse(lines.next().ok_or("empty column file")?)?;
    let jobs: Vec<String> = header
        .get("jobs")
        .and_then(Json::as_array)
        .ok_or("header missing jobs array")?
        .iter()
        .map(|j| j.as_str().map(str::to_string).ok_or("non-string job name".to_string()))
        .collect::<Result<_, _>>()?;
    let time_range = match header.get("time_range") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let arr = v.as_array().ok_or("time_range must be null or [start, end]")?;
            match arr {
                [s, e] => {
                    let s = s.as_u64().ok_or("non-integer time_range start")?;
                    let e = e.as_u64().ok_or("non-integer time_range end")?;
                    Some((SimTime::nanos(s), SimTime::nanos(e)))
                }
                _ => return Err("time_range must have exactly two entries".into()),
            }
        }
    };

    // Append each column to its table's blocks in file order, then let
    // the validated constructor check them against the schema.
    let mut tables: [StoredColumns; 4] = Default::default();
    for line in lines {
        column_line(line, &mut tables)?;
    }
    DataSet::from_columns(jobs, tables, time_range)
}

/// Decode one `{"table":…,"field":…,"values":[…]}` line in a single pass:
/// each number is scanned and parsed once, straight onto the end of its
/// table's block of its type — `u32` for an attribute, `f64` for a
/// metric. As with a tree parse, keys may come in any order, the first of
/// a repeated key wins and unknown keys are validated and skipped. Values
/// read before their table and field are known decode aside as `f64` and
/// are appended after, an attribute's cast with `as u32`, which is what
/// the `u32` reader yields.
fn column_line(line: &str, tables: &mut [StoredColumns; 4]) -> Result<(), String> {
    let slot = |kind| EntityKind::ALL.iter().position(|&k| k == kind).unwrap_or_default();
    let mut r = ObjectReader::new(line)?;
    let (mut table, mut name) = (None, None);
    // The values: how many went onto their block, or the ones read aside;
    // and whether every element was a number.
    let mut values: Option<(Result<usize, Vec<f64>>, bool)> = None;
    while let Some(key) = r.next_key()? {
        match key.as_str() {
            "table" if table.is_none() => table = Some(r.string()?),
            "field" if name.is_none() => name = Some(r.string()?),
            "values" if values.is_none() => {
                let kind = table.as_deref().and_then(EntityKind::parse);
                values = Some(match (kind, name.as_deref().and_then(Field::parse)) {
                    (Some(kind), Some(field)) => {
                        let t = &mut tables[slot(kind)];
                        let before = t.attrs.len() + t.metrics.len();
                        let numeric = if field.is_attribute() {
                            r.u32_array(&mut t.attrs)?
                        } else {
                            r.f64_array(&mut t.metrics)?
                        };
                        (Ok(t.attrs.len() + t.metrics.len() - before), numeric)
                    }
                    _ => {
                        let mut aside = Vec::new();
                        let numeric = r.f64_array(&mut aside)?;
                        (Err(aside), numeric)
                    }
                });
            }
            _ => r.skip_value()?,
        }
    }
    let table = table.ok_or("column missing table")?;
    let kind = EntityKind::parse(&table).ok_or_else(|| format!("unknown table {table:?}"))?;
    let name = name.ok_or("column missing field")?;
    let field = Field::parse(&name).ok_or_else(|| format!("unknown field {name:?}"))?;
    let (values, numeric) = values.ok_or("column missing values")?;
    if !numeric {
        return Err(format!("non-numeric value in {name}"));
    }
    let t = &mut tables[slot(kind)];
    let len = values.unwrap_or_else(|aside| {
        if field.is_attribute() {
            t.attrs.extend(aside.iter().map(|&x| x as u32));
        } else {
            t.metrics.extend_from_slice(&aside);
        }
        aside.len()
    });
    t.column_done(kind, field, len);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SweepSpec, TopologyAxis};
    use hrviz_pdes::SimTime as T;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hrviz-sweep-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_run() -> (RunConfig, RunResult) {
        let cfg = SweepSpec::new("t", TopologyAxis::Dragonfly { terminals: 72 })
            .msgs_per_rank(2)
            .msg_bytes(1024)
            .period(T::micros(1))
            .expand()
            .unwrap()
            .remove(0);
        let result = cfg.execute().unwrap();
        (cfg, result)
    }

    #[test]
    fn save_load_round_trip_is_bit_exact() {
        let store = RunStore::open(tmp("roundtrip")).unwrap();
        let (cfg, result) = tiny_run();
        assert!(!store.contains(&cfg.run_id()));
        store.save(&cfg, &result).unwrap();
        assert!(store.contains(&cfg.run_id()));
        let back = store.load(&cfg.run_id()).unwrap();
        assert_eq!(back.manifest.run, cfg.run_id());
        assert_eq!(back.manifest.canonical, cfg.canonical());
        assert_eq!(back.manifest.events_processed, result.stats.events_processed);
        assert_eq!(back.manifest.delivered, result.delivered);
        assert_eq!(back.manifest.state, RunState::Completed);
        assert_eq!(back.manifest.code_fingerprint, code_fingerprint());
        assert_eq!(back.manifest.fault_hash, "0");
        // The tables survive the JSONL round trip exactly, floats included.
        let ds = &back.data;
        for kind in EntityKind::ALL {
            assert_eq!(ds.table(kind), result.dataset.table(kind), "{kind}");
        }
        assert_eq!(ds.jobs, result.dataset.jobs);
        assert_eq!(ds.time_range, result.dataset.time_range);
        // Save → load → save reproduces the column file byte for byte.
        let dir = store.run_dir(&cfg.run_id());
        let on_disk = fs::read_to_string(dir.join("columns.jsonl")).unwrap();
        assert_eq!(columns_jsonl(&back.data), on_disk);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn generation_and_data_keys_track_store_changes() {
        let store = RunStore::open(tmp("gen")).unwrap();
        let (cfg, result) = tiny_run();
        assert_eq!(store.generation(), 0);
        let k0 = store.data_key(&cfg);
        assert_eq!(k0.run, cfg.hash());
        store.save(&cfg, &result).unwrap();
        assert_eq!(store.bump_generation().unwrap(), 1);
        let k1 = store.data_key(&cfg);
        assert_eq!(k1.generation, 1);
        assert_ne!(k0, k1, "a bumped store invalidates old keys");
        assert_eq!(store.runs().unwrap(), vec![cfg.run_id()]);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_files_fail_with_parse_errors() {
        let store = RunStore::open(tmp("corrupt")).unwrap();
        let (cfg, result) = tiny_run();
        let dir = store.save(&cfg, &result).unwrap();
        fs::write(dir.join("manifest.json"), "{\"run\":\"x\"}").unwrap();
        let e = store.load(&cfg.run_id()).unwrap_err();
        assert!(e.to_string().contains("missing"), "{e}");
        fs::write(dir.join("manifest.json"), "not json").unwrap();
        assert!(store.load(&cfg.run_id()).is_err());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn generation_bump_survives_a_crash_at_every_boundary() {
        // Satellite regression: the GENERATION bump must be atomic. A
        // simulated death before, during, or after the temp write leaves
        // the old counter readable and at worst a stray .tmp for fsck.
        for mode in [CrashMode::BeforeWrite, CrashMode::TornTmp, CrashMode::BeforeRename] {
            let root = tmp("genatomic");
            let store = RunStore::open(&root).unwrap();
            store.bump_generation().unwrap();
            assert_eq!(store.generation(), 1);
            let crashing = store.clone().with_crash_plan(CrashPlan::after_ops(0, mode));
            assert!(crashing.bump_generation().is_err(), "{mode:?} must error");
            assert_eq!(store.generation(), 1, "{mode:?} must not tear the counter");
            let reopened = RunStore::open(&root).unwrap();
            let report = reopened.last_fsck().unwrap();
            assert_eq!(report.generation, 1);
            assert!(report.quarantined.is_empty());
            assert_eq!(reopened.generation(), 1);
            assert!(
                !root.join("GENERATION.tmp").exists(),
                "{mode:?}: fsck must reap the stray tmp"
            );
            let _ = fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn lifecycle_states_gate_contains_and_runs() {
        let store = RunStore::open(tmp("lifecycle")).unwrap();
        let (cfg, result) = tiny_run();
        let prov = Provenance { sweep_id: "abc123".into() };
        store.mark_running(&cfg, &prov).unwrap();
        assert_eq!(store.health(&cfg.run_id()), RunHealth::Pending(RunState::Running));
        assert!(!store.contains(&cfg.run_id()));
        assert!(store.runs().unwrap().is_empty());
        let m = store.load_manifest(&cfg.run_id()).unwrap();
        assert_eq!(m.state, RunState::Running);
        assert_eq!(m.created_by_sweep_id, "abc123");
        assert!(store.load(&cfg.run_id()).is_err(), "running runs are not loadable");

        store.mark_failed(&cfg, &prov, "boom").unwrap();
        let m = store.load_manifest(&cfg.run_id()).unwrap();
        assert_eq!(m.state, RunState::Failed);
        assert_eq!(m.error, "boom");

        store.save_with(&cfg, &result, &prov).unwrap();
        assert_eq!(store.health(&cfg.run_id()), RunHealth::Complete);
        let m = store.load_manifest(&cfg.run_id()).unwrap();
        assert_eq!(m.state, RunState::Completed);
        assert_eq!(m.created_by_sweep_id, "abc123");
        assert!(m.error.is_empty());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn checksums_catch_silent_corruption_and_fsck_quarantines() {
        let root = tmp("checksum");
        let store = RunStore::open(&root).unwrap();
        let (cfg, result) = tiny_run();
        let dir = store.save(&cfg, &result).unwrap();
        // Corrupt the column file without breaking its JSON.
        let mut columns = fs::read_to_string(dir.join("columns.jsonl")).unwrap();
        columns.push('\n');
        fs::write(dir.join("columns.jsonl"), &columns).unwrap();
        let e = store.load(&cfg.run_id()).unwrap_err();
        assert!(e.to_string().contains("checksum mismatch"), "{e}");
        // health() alone still says Complete (it never reads columns) but
        // reopening the store quarantines the run.
        assert!(store.contains(&cfg.run_id()));
        let reopened = RunStore::open(&root).unwrap();
        let report = reopened.last_fsck().unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.quarantined[0].1.contains("checksum mismatch"));
        assert!(!reopened.contains(&cfg.run_id()));
        assert!(reopened.quarantine_dir().join(cfg.run_id()).is_dir());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_checksum_mismatch_is_reported_before_a_parse_error() {
        let root = tmp("precedence");
        let store = RunStore::open(&root).unwrap();
        let (cfg, result) = tiny_run();
        let run = cfg.run_id();
        let dir = store.save(&cfg, &result).unwrap();
        let col_path = dir.join("columns.jsonl");
        let original = fs::read_to_string(&col_path).unwrap();
        let load_with = |text: &str| {
            fs::write(&col_path, text).unwrap();
            store.load(&run).unwrap_err()
        };
        // The first digit of a column's values, changed: it still parses.
        let at = original
            .match_indices("\"values\":[")
            .map(|(i, m)| i + m.len())
            .find(|&i| original.as_bytes()[i].is_ascii_digit())
            .unwrap();
        let mut bytes = original.clone().into_bytes();
        bytes[at] = if bytes[at] == b'9' { b'1' } else { bytes[at] + 1 };
        let digit = String::from_utf8(bytes).unwrap();
        assert!(parse_columns(&digit).is_ok());
        let e = load_with(&digit).to_string();
        assert!(e.contains("columns checksum mismatch"), "{e}");
        // Truncated mid-array: both the checksum and the parse fail, and
        // the checksum is what is reported.
        let cut = &original[..=at];
        assert!(parse_columns(cut).is_err());
        let e = load_with(cut).to_string();
        assert!(e.contains("columns checksum mismatch"), "{e}");
        // With the manifest agreeing with the malformed file, the parse
        // error surfaces, naming the column file.
        let manifest = store.load_manifest(&run).unwrap();
        let m = StoredManifest { columns_checksum: checksum_of(cut), ..manifest };
        fs::write(dir.join("manifest.json"), manifest_text(&m)).unwrap();
        match load_with(cut) {
            HrvizError::Parse { what, detail } => {
                assert_eq!(what, col_path.display().to_string());
                assert!(!detail.contains("checksum"), "{detail}");
            }
            e => panic!("not a parse error: {e}"),
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fsck_quarantines_torn_manifests_and_keeps_orphans() {
        let root = tmp("fsckpass");
        let store = RunStore::open(&root).unwrap();
        let (cfg, _) = tiny_run();
        // A torn manifest (truncated JSON) in a plausible run dir.
        let torn = root.join("00000000deadbeef");
        fs::create_dir_all(&torn).unwrap();
        fs::write(torn.join("manifest.json"), "{\"run\":\"0000").unwrap();
        // An orphaned running run (crashed worker).
        store.mark_running(&cfg, &Provenance::default()).unwrap();
        let report = store.fsck().unwrap();
        assert_eq!(report.scanned, 2);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].0, "00000000deadbeef");
        assert_eq!(report.running_orphans, vec![cfg.run_id()]);
        assert!(!report.is_clean());
        assert!(!torn.exists(), "torn run must move to quarantine");
        assert!(
            root.join(cfg.run_id()).is_dir(),
            "orphaned running runs stay in place for --resume"
        );
        // The report is persisted, deterministic, and parseable.
        let text = fs::read_to_string(root.join("fsck_report.json")).unwrap();
        assert!(text.contains("\"running_orphans\":[\"") && text.contains("\"clean\":0"), "{text}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn crash_mid_save_never_yields_a_servable_run() {
        // Kill the save path at each successive write boundary; whatever is
        // left must either fail contains() or be quarantined by fsck —
        // never served as a complete run with wrong bytes.
        for ops in 0..2u64 {
            for mode in [CrashMode::BeforeWrite, CrashMode::TornTmp, CrashMode::BeforeRename] {
                let root = tmp("crashsave");
                let (cfg, result) = tiny_run();
                let store =
                    RunStore::open(&root).unwrap().with_crash_plan(CrashPlan::after_ops(ops, mode));
                assert!(store.save(&cfg, &result).is_err(), "ops={ops} {mode:?}");
                let reopened = RunStore::open(&root).unwrap();
                let report = reopened.last_fsck().unwrap().clone();
                if reopened.contains(&cfg.run_id()) {
                    // Only a fully-written run may survive the pass.
                    reopened.load(&cfg.run_id()).unwrap();
                } else {
                    assert!(report.completed == 0);
                }
                // Whatever happened, a fresh save then converges.
                reopened.save(&cfg, &result).unwrap();
                assert!(reopened.contains(&cfg.run_id()));
                reopened.load(&cfg.run_id()).unwrap();
                let _ = fs::remove_dir_all(&root);
            }
        }
    }

    fn grid_runs(n: usize) -> Vec<(RunConfig, RunResult)> {
        let seeds: Vec<u64> = (0..n as u64).map(|i| 42 + i).collect();
        SweepSpec::new("g", TopologyAxis::Dragonfly { terminals: 72 })
            .msgs_per_rank(1)
            .msg_bytes(512)
            .period(T::micros(1))
            .seeds(seeds)
            .expand()
            .unwrap()
            .into_iter()
            .map(|cfg| {
                let result = cfg.execute().unwrap();
                (cfg, result)
            })
            .collect()
    }

    /// Every path under `root` with its bytes (directories as `None`).
    fn tree_image(root: &Path) -> Vec<(PathBuf, Option<Vec<u8>>)> {
        let mut out = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            for entry in fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    out.push((path.clone(), None));
                    stack.push(path);
                } else {
                    out.push((path.clone(), Some(fs::read(&path).unwrap())));
                }
            }
        }
        out.sort();
        out
    }

    #[test]
    fn opening_a_sharded_store_is_a_structured_error() {
        let root = tmp("sharded");
        fs::create_dir_all(root.join("shards/s01/00000000deadbeef")).unwrap();
        fs::write(root.join("SHARDS"), "4\n").unwrap();
        fs::write(root.join("shards/s01/GENERATION"), "3\n").unwrap();
        fs::write(root.join("stray.1.1.tmp"), b"x").unwrap();
        let before = tree_image(&root);
        match RunStore::open(&root) {
            Err(HrvizError::Config(msg)) => {
                assert!(msg.contains("SHARDS") && msg.contains("no longer supported"), "{msg}");
            }
            other => panic!("expected a config error, got {other:?}"),
        }
        assert_eq!(tree_image(&root), before, "a refused open writes nothing");
        assert!(!root.join("fsck_report.json").exists());
        let _ = fs::remove_dir_all(&root);
    }

    /// A decoded column: its table, field, whether it is `u32`, and its
    /// values as comparable bits.
    type Decoded = (EntityKind, Field, bool, Vec<u64>);

    /// [`column_line`] on one line: the column it appends.
    fn single_pass(line: &str) -> Result<Decoded, String> {
        let mut tables: [StoredColumns; 4] = Default::default();
        column_line(line, &mut tables)?;
        let (kind, t) = EntityKind::ALL
            .into_iter()
            .zip(&tables)
            .find(|(_, t)| !t.fields.is_empty())
            .ok_or("no column appended")?;
        let field = t.fields[0].0;
        let bits = if field.is_attribute() {
            t.attrs.iter().map(|&x| u64::from(x)).collect()
        } else {
            t.metrics.iter().map(|x| x.to_bits()).collect()
        };
        Ok((kind, field, field.is_attribute(), bits))
    }

    /// The tree-based line decoder [`column_line`] replaced: parse the
    /// line into a `Json` tree and convert, an attribute with `as u32` as the
    /// row setters did. Kept as the reference it must match.
    fn tree_column_line(line: &str) -> Result<Decoded, String> {
        let v = Json::parse(line)?;
        let table = v.get("table").and_then(Json::as_str).ok_or("column missing table")?;
        let kind = EntityKind::parse(table).ok_or_else(|| format!("unknown table {table:?}"))?;
        let name = v.get("field").and_then(Json::as_str).ok_or("column missing field")?;
        let field = Field::parse(name).ok_or_else(|| format!("unknown field {name:?}"))?;
        let values: Vec<f64> = v
            .get("values")
            .and_then(Json::as_array)
            .ok_or("column missing values")?
            .iter()
            .map(|x| x.as_f64().ok_or_else(|| format!("non-numeric value in {name}")))
            .collect::<Result<_, _>>()?;
        let bits = if field.is_attribute() {
            values.iter().map(|&x| u64::from(x as u32)).collect()
        } else {
            values.iter().map(|x| x.to_bits()).collect()
        };
        Ok((kind, field, field.is_attribute(), bits))
    }

    /// Both decoders accept `line` with bit-identical, identically typed
    /// values, or both reject it; returns whether it was accepted.
    fn decoders_agree(line: &str) -> bool {
        match (single_pass(line), tree_column_line(line)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "decoders disagree on {line:?}");
                true
            }
            (Err(_), Err(_)) => false,
            (a, b) => panic!("decoders disagree on {line:?}: single-pass {a:?}, tree {b:?}"),
        }
    }

    #[test]
    fn single_pass_decoder_matches_the_tree_decoder_on_stored_runs() {
        let root = tmp("decodediff");
        let store = RunStore::open(&root).unwrap();
        let mut runs = grid_runs(2);
        runs.push(tiny_run());
        for (cfg, result) in &runs {
            let dir = store.save(cfg, result).unwrap();
            let text = fs::read_to_string(dir.join("columns.jsonl")).unwrap();
            let lines: Vec<&str> = text.lines().skip(1).collect();
            assert!(lines.len() > 20, "every table's columns are stored");
            let mut attributes = 0;
            for line in lines {
                assert!(decoders_agree(line));
                attributes += usize::from(single_pass(line).unwrap().2);
            }
            // 4 router + 2 × 10 link + 6 terminal attribute columns.
            assert_eq!(attributes, 30, "every attribute line decodes as u32");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn attribute_lines_decode_as_u32_exactly_as_the_tree_casts() {
        let line =
            |cells: &str| format!(r#"{{"table":"terminal","field":"rank","values":{cells}}}"#);
        let edges = [
            "[0]",
            "[007]",
            "[4294967295]",
            "[4294967296]",
            "[-3]",
            "[1.5]",
            "[1e3]",
            "[1234567890]",
            "[9999999999]",
            "[1234567890123456789012345]",
            "[ 1 , 2,\t3 ,\n4]",
            "[]",
            "[999999999,1000000000,0,-0,18446744073709551616]",
        ];
        for cells in edges {
            let l = line(cells);
            assert!(decoders_agree(&l), "should accept {l:?}");
            assert!(single_pass(&l).unwrap().2, "{l:?} decodes as u32");
        }
        let (.., is_u32, bits) = single_pass(&line("[4294967296,9999999999,-3,1.5,1e3]")).unwrap();
        assert!(is_u32);
        assert_eq!(bits, [u32::MAX, u32::MAX, 0, 1, 1000].map(u64::from));
        // Values read before the field is named still come out as u32.
        let late = r#"{"values":[4294967296,7],"table":"terminal","field":"rank"}"#;
        assert!(decoders_agree(late));
        let (.., is_u32, bits) = single_pass(late).unwrap();
        assert_eq!((is_u32, bits), (true, vec![4294967295, 7]));
    }

    #[test]
    fn single_pass_decoder_matches_the_tree_decoder_on_edge_lines() {
        let base = r#"{"table":"terminal","field":"traffic","values":[1,2.5,3]}"#;
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let accepted = [
            base.to_string(),
            r#"{"values":[1,2],"field":"traffic","table":"router"}"#.into(),
            r#"{"table":"router","table":"nope","field":"traffic","values":[1]}"#.into(),
            r#"{"table":"router","field":"traffic","values":[1],"values":[null]}"#.into(),
            r#"{"field":"traffic","field":7,"table":"router","values":[4],"table":{}}"#.into(),
            r#"{"x":{"a":[1,{"b":null}],"c":true},"table":"router","field":"traffic","values":[1],"z":"s"}"#.into(),
            " \t{ \"table\" : \"router\" ,\r\n \"field\":\"traffic\" , \"values\" : [ 1 , 2 ] } \r".into(),
            r#"{"table":"router","field":"traffic","v\"s":"\\\/","values":[1]}"#.into(),
            r#"{"table":"routers","field":"rank","values":[1e3,1E-7,2.5e+10,-3.25E2]}"#.into(),
            r#"{"table":"router","field":"traffic","values":[-0,-0.0,0,0.0]}"#.into(),
            r#"{"table":"router","field":"traffic","values":[9007199254740993,18446744073709551617]}"#.into(),
            r#"{"table":"router","field":"traffic","values":[1e308,1e400,-1e400,5e-324,1e-400]}"#.into(),
            r#"{"table":"router","field":"traffic","values":[01,1.,-.5]}"#.into(),
            r#"{"table":"router","field":"traffic","values":[]}"#.into(),
            format!(r#"{{"x":{},"table":"router","field":"traffic","values":[1]}}"#, nest(128)),
            // Integer cells: the 15-digit short path and what falls back.
            r#"{"table":"router","field":"traffic","values":[0,-0,007,-007]}"#.into(),
            r#"{"table":"router","field":"traffic","values":[999999999999999,-999999999999999]}"#
                .into(),
            r#"{"table":"router","field":"traffic","values":[9007199254740992,9007199254740993]}"#
                .into(),
            r#"{"table":"router","field":"traffic","values":[1234567890123456789012345]}"#.into(),
            r#"{"table":"router","field":"traffic","values":[1.,1e3,-12.5,12,-3]}"#.into(),
        ];
        let rejected = [
            r#"{"table":"router","field":"traffic","values":[1,null]}"#.to_string(),
            r#"{"table":"router","field":"traffic","values":[1,"2"]}"#.into(),
            r#"{"table":"router","values":[null],"field":"traffic"}"#.into(),
            r#"{"table":"router","field":"traffic","values":[[1]]}"#.into(),
            r#"{"table":"router","field":"traffic","values":[null],"values":[1]}"#.into(),
            r#"{"table":"router","field":"traffic","values":1}"#.into(),
            r#"{"table":1,"field":"traffic","values":[1]}"#.into(),
            r#"{"table":"router\"","field":"traffic","values":[1]}"#.into(),
            r#"{"table":"switch","field":"traffic","values":[1]}"#.into(),
            r#"{"table":"router","field":"bogus","values":[1]}"#.into(),
            r#"{"field":"traffic","values":[1]}"#.into(),
            r#"{"table":"router","values":[1]}"#.into(),
            r#"{"table":"router","field":"traffic"}"#.into(),
            r#"{"table":"router","field":"traffic","values":[-]}"#.into(),
            r#"{"table":"router","field":"traffic","values":[1,-]}"#.into(),
            r#"{"table":"router","field":"traffic","values":[+1]}"#.into(),
            r#"{"table":"router","field":"traffic","values":[12a]}"#.into(),
            r#"{"table":"router","field":"traffic","values":[1e]}"#.into(),
            r#"{"table":"router","field":"traffic","values":[--1]}"#.into(),
            r#"{"table":"router","field":"traffic","values":[1 2]}"#.into(),
            r#"{"table":"router","field":"traffic","values":[1,]}"#.into(),
            "{\"table\":\"rou\tter\",\"field\":\"traffic\",\"values\":[1]}".into(),
            r#"{"table":"router","field":"traffic","values":[1]"#.into(),
            r#"{"table":"router","field":"traffic","values":[1]} x"#.into(),
            r#"{"table":"router","field":"traffic","values":[1]}}"#.into(),
            r#"{"table":"router","field":"traffic","values":[1]},"#.into(),
            r#"{"table":"router" "field":"traffic","values":[1]}"#.into(),
            r#"[{"table":"router","field":"traffic","values":[1]}]"#.into(),
            "null".into(),
            String::new(),
            format!(r#"{{"x":{},"table":"router","field":"traffic","values":[1]}}"#, nest(129)),
            format!(r#"{{"x":{},"table":"router"}}"#, "[".repeat(200_000)),
        ];
        for line in &accepted {
            assert!(decoders_agree(line), "should accept {line:?}");
        }
        for line in &rejected {
            assert!(!decoders_agree(line), "should reject {line:?}");
        }
        // Every proper prefix of a valid line is truncated, hence rejected.
        for k in 0..base.len() {
            assert!(!decoders_agree(&base[..k]), "should reject {:?}", &base[..k]);
        }
        // The field is named even when it follows the bad values.
        let e = single_pass(&rejected[2]).unwrap_err();
        assert_eq!(e, "non-numeric value in traffic");
    }

    #[test]
    fn manifest_text_checksum_is_self_consistent() {
        let (cfg, result) = tiny_run();
        let m = completed_manifest(&cfg, &result, &Provenance::default(), "x".into());
        let text = manifest_text(&m);
        let back = parse_manifest(&text).unwrap();
        assert_eq!(back, m);
        // Any byte flip breaks the checksum.
        let tampered = text.replace("\"seed\":42", "\"seed\":43");
        assert_ne!(tampered, text);
        let e = parse_manifest(&tampered).unwrap_err();
        assert!(e.contains("checksum mismatch"), "{e}");
    }
}
