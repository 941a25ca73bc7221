//! Per-file analysis facts.
//!
//! A [`FileFacts`] holds everything one file contributes to a lint run:
//! its local findings plus the raw material the *global* passes consume
//! (lock-acquisition edges for the cycle pass, metric-write sites for
//! the counter-drift pass). The global passes run over the facts of
//! every file.

use crate::rules::Finding;

/// One held→acquired lock edge, with its site for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    pub held: String,
    pub acquired: String,
    pub file: String,
    pub line: usize,
    pub snippet: String,
    /// An inline `lint:allow(lock_order_cycle, …)` covers the site.
    pub suppressed: bool,
}

/// One metric write site (`.counter_add("name", …)` et al).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricWrite {
    /// Literal metric name (empty when the site passed a non-literal).
    pub name: String,
    /// `counter` / `gauge` / `hist` as implied by the method.
    pub kind: String,
    pub file: String,
    pub line: usize,
    pub snippet: String,
    /// An inline `lint:allow(counter_drift, …)` covers the site.
    pub suppressed: bool,
}

/// Everything one file contributes to the run.
#[derive(Debug, Default, Clone)]
pub struct FileFacts {
    pub findings: Vec<Finding>,
    pub edges: Vec<LockEdge>,
    pub writes: Vec<MetricWrite>,
}
