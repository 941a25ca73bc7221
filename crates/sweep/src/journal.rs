//! Persisted sweep journals.
//!
//! One journal file per sweep, `<store>/sweeps/<sweep-id>.json`, written
//! atomically on every run-state transition. The journal is *advisory*:
//! run manifests are the source of truth for lifecycle state, and a stale
//! journal (crash between a run's manifest write and the journal write)
//! only costs `--resume` a redundant health check, never correctness. Its
//! `attempts` counters are what seed the deterministic retry backoff.
//!
//! The format has no wall-clock fields, but attempt counters legitimately
//! differ between an interrupted-then-resumed sweep and an uninterrupted
//! one — byte-identity guarantees for the store therefore cover run
//! directories and `GENERATION`, not `sweeps/`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use hrviz_faults::HrvizError;
use hrviz_obs::Json;

use crate::store::{RunState, RunStore};

/// Per-run progress within one sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalEntry {
    /// Last recorded lifecycle state.
    pub state: RunState,
    /// Simulation attempts so far (across crashes — this is what makes the
    /// resume backoff grow).
    pub attempts: u64,
}

/// The persisted progress of one sweep over a store.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepJournal {
    /// Deterministic sweep id (FNV-1a of name + grid run ids).
    pub sweep_id: String,
    /// Sweep name.
    pub name: String,
    /// The generation the store must reach once every entry completes
    /// (0 = no bump outstanding). Recorded *before* any simulation so a
    /// crash landing exactly on the `GENERATION` write leaves a visible
    /// intent: the next sweep over this grid finishes the bump instead of
    /// silently keeping the stale counter. An absolute target, not an
    /// increment, so re-applying it is idempotent.
    pub pending_generation: u64,
    /// Per-run entries, keyed (and serialized) by run id.
    pub entries: BTreeMap<String, JournalEntry>,
}

impl SweepJournal {
    /// An empty journal for `sweep_id`.
    pub fn new(sweep_id: impl Into<String>, name: impl Into<String>) -> SweepJournal {
        SweepJournal {
            sweep_id: sweep_id.into(),
            name: name.into(),
            pending_generation: 0,
            entries: BTreeMap::new(),
        }
    }

    /// The journal's path within `store`.
    pub fn path_in(store: &RunStore, sweep_id: &str) -> PathBuf {
        store.sweeps_dir().join(format!("{sweep_id}.json"))
    }

    /// Load the journal for `sweep_id`, if one exists. A missing *or*
    /// unparseable file yields `None` — manifests are the source of truth,
    /// so a damaged journal degrades to a fresh one instead of erroring.
    pub fn load(store: &RunStore, sweep_id: &str) -> Option<SweepJournal> {
        let text = std::fs::read_to_string(Self::path_in(store, sweep_id)).ok()?;
        Self::parse(&text).ok()
    }

    /// Persist atomically into `store`.
    pub fn persist(&self, store: &RunStore) -> Result<(), HrvizError> {
        let dir = store.sweeps_dir();
        std::fs::create_dir_all(&dir).map_err(|e| HrvizError::io(dir.display().to_string(), e))?;
        let path = Self::path_in(store, &self.sweep_id);
        store.write_atomic(&path, (self.to_json().render() + "\n").as_bytes(), true)
    }

    /// Record a state transition, optionally counting a new attempt.
    pub fn record(&mut self, run: &str, state: RunState, new_attempt: bool) {
        let e = self.entries.entry(run.to_string()).or_insert(JournalEntry { state, attempts: 0 });
        e.state = state;
        if new_attempt {
            e.attempts += 1;
        }
    }

    /// Attempts recorded so far for `run`.
    pub fn attempts(&self, run: &str) -> u64 {
        self.entries.get(run).map(|e| e.attempts).unwrap_or(0)
    }

    /// JSON form (deterministic: runs sorted, no wall-clock fields).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("sweep_id", Json::Str(self.sweep_id.clone())),
            ("name", Json::Str(self.name.clone())),
            ("pending_generation", Json::U64(self.pending_generation)),
            ("total", Json::U64(self.entries.len() as u64)),
            (
                "runs",
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|(run, e)| {
                            Json::obj([
                                ("run", Json::Str(run.clone())),
                                ("state", Json::Str(e.state.name().to_string())),
                                ("attempts", Json::U64(e.attempts)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Inverse of [`SweepJournal::to_json`].
    pub fn parse(text: &str) -> Result<SweepJournal, String> {
        let v = Json::parse(text)?;
        let s = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("journal missing string field {key:?}"))
        };
        let mut journal = SweepJournal::new(s("sweep_id")?, s("name")?);
        // Absent in journals written before the field existed: no intent.
        // Other keys (older journals carry a per-layout intent list beside
        // this one) are ignored.
        journal.pending_generation =
            v.get("pending_generation").and_then(Json::as_u64).unwrap_or(0);
        let runs = v.get("runs").and_then(Json::as_array).ok_or("journal missing runs array")?;
        for entry in runs {
            let run = entry
                .get("run")
                .and_then(Json::as_str)
                .ok_or("journal entry missing run")?
                .to_string();
            let state_name =
                entry.get("state").and_then(Json::as_str).ok_or("journal entry missing state")?;
            let state = RunState::parse(state_name)
                .ok_or_else(|| format!("unknown journal state {state_name:?}"))?;
            let attempts = entry
                .get("attempts")
                .and_then(Json::as_u64)
                .ok_or("journal entry missing attempts")?;
            journal.entries.insert(run, JournalEntry { state, attempts });
        }
        Ok(journal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hrviz-sweep-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn journal_round_trips_and_persists_atomically() {
        let root = tmp("roundtrip");
        let store = RunStore::open(&root).unwrap();
        let mut j = SweepJournal::new("abcd", "grid");
        j.record("00000000000000aa", RunState::Running, true);
        j.record("00000000000000aa", RunState::Completed, false);
        j.record("00000000000000bb", RunState::Failed, true);
        j.record("00000000000000bb", RunState::Failed, true);
        j.persist(&store).unwrap();
        let back = SweepJournal::load(&store, "abcd").unwrap();
        assert_eq!(back, j);
        assert_eq!(back.attempts("00000000000000bb"), 2);
        assert_eq!(back.attempts("00000000000000aa"), 1);
        assert_eq!(back.attempts("missing"), 0);
        // No stray tmp file after the atomic write.
        assert!(!SweepJournal::path_in(&store, "abcd.tmp").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn damaged_journal_degrades_to_none() {
        let root = tmp("damaged");
        let store = RunStore::open(&root).unwrap();
        assert!(SweepJournal::load(&store, "nope").is_none());
        std::fs::create_dir_all(store.sweeps_dir()).unwrap();
        std::fs::write(SweepJournal::path_in(&store, "torn"), "{\"sweep_id\":").unwrap();
        assert!(SweepJournal::load(&store, "torn").is_none());
        let _ = std::fs::remove_dir_all(&root);
    }
}
