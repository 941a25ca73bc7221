//! The workspace error type.
//!
//! Every fallible boundary in the stack — CLI argument parsing, config
//! validation, schedule files, simulation runs — funnels into
//! [`HrvizError`], and each class maps to a distinct nonzero process exit
//! code so scripts can tell a usage mistake from a simulation failure.

use hrviz_pdes::SimError;
use std::fmt;

/// Workspace-wide error with a CLI exit code per class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HrvizError {
    /// Bad command line: unknown command, unknown flag, malformed value.
    /// Exit code 2.
    Usage(String),
    /// Inconsistent model configuration (violated `g = a·h + 1`, zero
    /// buffers, too few VCs, ...). Exit code 3.
    Config(String),
    /// A file could not be read or written. Exit code 4.
    Io {
        /// Path involved in the failed operation.
        path: String,
        /// Underlying OS error.
        detail: String,
    },
    /// A file was read but its contents did not parse. Exit code 5.
    Parse {
        /// What was being parsed (path or format name).
        what: String,
        /// Parser diagnostic.
        detail: String,
    },
    /// The simulation itself failed (watchdog trip, invariant violation).
    /// Exit code 6.
    Sim(SimError),
    /// A check returned a failing verdict: the inputs were all valid and
    /// every step ran, but what was checked is not in the expected state
    /// (e.g. `hrviz fsck` on a dirty store). Exit code 7, so CI can treat
    /// "check failed" differently from "tool broke".
    Gate(String),
}

impl HrvizError {
    /// Build a [`HrvizError::Usage`].
    pub fn usage(msg: impl Into<String>) -> Self {
        HrvizError::Usage(msg.into())
    }

    /// Build a [`HrvizError::Config`].
    pub fn config(msg: impl Into<String>) -> Self {
        HrvizError::Config(msg.into())
    }

    /// Build a [`HrvizError::Io`] from any displayable OS error.
    pub fn io(path: impl Into<String>, err: impl fmt::Display) -> Self {
        HrvizError::Io { path: path.into(), detail: err.to_string() }
    }

    /// Build a [`HrvizError::Parse`].
    pub fn parse(what: impl Into<String>, detail: impl Into<String>) -> Self {
        HrvizError::Parse { what: what.into(), detail: detail.into() }
    }

    /// Build a [`HrvizError::Gate`].
    pub fn gate(msg: impl Into<String>) -> Self {
        HrvizError::Gate(msg.into())
    }

    /// The process exit code for this error class (always nonzero).
    pub fn exit_code(&self) -> i32 {
        match self {
            HrvizError::Usage(_) => 2,
            HrvizError::Config(_) => 3,
            HrvizError::Io { .. } => 4,
            HrvizError::Parse { .. } => 5,
            HrvizError::Sim(_) => 6,
            HrvizError::Gate(_) => 7,
        }
    }
}

impl fmt::Display for HrvizError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HrvizError::Usage(msg) => write!(f, "{msg}"),
            HrvizError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            HrvizError::Io { path, detail } => write!(f, "{path}: {detail}"),
            HrvizError::Parse { what, detail } => write!(f, "{what}: {detail}"),
            HrvizError::Sim(e) => write!(f, "simulation failed: {e}"),
            HrvizError::Gate(msg) => write!(f, "gate failed: {msg}"),
        }
    }
}

impl std::error::Error for HrvizError {}

impl From<SimError> for HrvizError {
    fn from(e: SimError) -> Self {
        HrvizError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrviz_pdes::SimTime;

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        let errors = [
            HrvizError::usage("u"),
            HrvizError::config("c"),
            HrvizError::io("a/b", "denied"),
            HrvizError::parse("x.json", "bad"),
            HrvizError::Sim(SimError::VirtualTimeStall { now: SimTime(1), events: 2, limit: 1 }),
            HrvizError::gate("store is dirty: 1 quarantined"),
        ];
        let mut codes: Vec<i32> = errors.iter().map(|e| e.exit_code()).collect();
        assert!(codes.iter().all(|&c| c != 0));
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errors.len(), "exit codes must be distinct");
    }

    #[test]
    fn sim_errors_convert() {
        let s = SimError::VirtualTimeStall { now: SimTime(9), events: 5, limit: 4 };
        let e: HrvizError = s.clone().into();
        assert_eq!(e, HrvizError::Sim(s));
        assert!(e.to_string().contains("simulation failed"));
    }

    #[test]
    fn display_includes_context() {
        let e = HrvizError::io("sched.json", "No such file");
        assert!(e.to_string().contains("sched.json"));
        let e = HrvizError::parse("sched.json", "expected ':'");
        assert!(e.to_string().contains("expected ':'"));
    }
}
