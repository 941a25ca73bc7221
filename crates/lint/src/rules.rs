//! The rule catalog and per-file checks.
//!
//! Six families, mirroring the contracts earlier PRs established:
//!
//! * **determinism** — scoped to the simulation crates (`pdes`,
//!   `network`, `fattree`, `workloads`, `faults`, `sweep`): byte-identical
//!   replay is the foundation every comparison view stands on, so nothing
//!   order-sensitive (hash-map iteration, wall-clock reads, ambient RNG,
//!   unordered parallel float reductions) may reach simulation state.
//! * **panic-freedom** — scoped to the error boundary plus the engine and
//!   render hot paths (`cli`, `faults`, `serve`, `pdes`, `render`, the
//!   linter itself, the `network`/`fattree` config paths and the obs
//!   exporters): user input must surface as `HrvizError` or an HTTP
//!   error, never a panic. The indexing rule is syntax-aware: indexing a
//!   const-sized array in bounds, or an index the function already
//!   compared against `.len()`, is allowed.
//! * **concurrency** — workspace-wide: the token-tree lock pass in
//!   [`crate::locks`] flags nested-lock cycles and blocking calls under a
//!   live guard.
//! * **telemetry** — workspace-wide: the counter-drift audit in
//!   [`crate::counters`] keeps write sites, the `hrviz_obs::METRICS`
//!   manifest and DESIGN.md's telemetry table identical.
//! * **invariants** — workspace-wide: every `Lp` impl must override
//!   `audit`, and every `Lp` impl that handles events must override
//!   `snapshot`/`restore` (the Time Warp prerequisite).
//! * **meta** — malformed suppressions, stale baseline entries and
//!   baseline debt itself.

use crate::source::{find, SourceFile};
use crate::tokens::{TokKind, TokenFile};
use std::collections::BTreeMap;

/// One rule's identity and documentation.
pub struct RuleInfo {
    /// Stable id used in diagnostics, suppressions and the baseline.
    pub id: &'static str,
    /// Rule family.
    pub family: &'static str,
    /// One-line description for `--list-rules` and the README catalog.
    pub desc: &'static str,
}

/// The full catalog. `bad_suppression`, `stale_baseline` and
/// `baseline_debt` are meta-rules: they police the escape hatches and can
/// be neither suppressed nor baselined.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "hash_collections",
        family: "determinism",
        desc: "no HashMap/HashSet in sim-crate non-test code (iteration order is unseeded); \
               use BTreeMap/BTreeSet or sort before iterating",
    },
    RuleInfo {
        id: "wall_clock",
        family: "determinism",
        desc: "no std::time::Instant/SystemTime in sim-crate non-test code; wall-clock reads \
               make replays diverge (telemetry-only uses need lint:allow with a reason)",
    },
    RuleInfo {
        id: "ambient_rng",
        family: "determinism",
        desc: "no thread_rng/OsRng/from_entropy/rand::random in sim-crate non-test code; all \
               randomness must flow from the run's seed",
    },
    RuleInfo {
        id: "unordered_float_reduction",
        family: "determinism",
        desc: "no .sum()/.reduce()/.fold()/.product() on a par_iter chain in sim crates; \
               float addition is not associative, so reduce sequentially or over sorted parts",
    },
    RuleInfo {
        id: "panic_unwrap",
        family: "panic",
        desc: "no unwrap/expect/panic!/unreachable!/todo! in the panic-free scope (cli, \
               faults, serve, pdes, render, lint, config paths, obs exporters); return \
               HrvizError instead",
    },
    RuleInfo {
        id: "slice_index",
        family: "panic",
        desc: "no unproven slice/array indexing in the panic-free scope; const-bounded and \
               len-guarded indexing pass, everything else uses .get() and surfaces HrvizError",
    },
    RuleInfo {
        id: "lock_order_cycle",
        family: "concurrency",
        desc: "lock acquisition order must be acyclic across the workspace, and no lock may \
               be re-acquired while its own guard is live (std locks are non-reentrant)",
    },
    RuleInfo {
        id: "blocking_under_lock",
        family: "concurrency",
        desc: "no file I/O, fsync, socket accept/connect, channel recv, pool submit or sleep \
               while a Mutex/RwLock guard is live (directly or through a same-file callee)",
    },
    RuleInfo {
        id: "counter_drift",
        family: "telemetry",
        desc: "every metric written must be registered in hrviz_obs::METRICS and documented \
               in DESIGN.md's telemetry table, and vice versa; names must be string literals",
    },
    RuleInfo {
        id: "missing_audit",
        family: "invariant",
        desc: "every Lp impl must override audit() (conservation checks the watchdog engine \
               runs post-drain) or carry lint:allow(missing_audit, reason=…)",
    },
    RuleInfo {
        id: "missing_state_saving",
        family: "invariant",
        desc: "every Lp impl that handles events (overrides on_event) must override \
               snapshot() and restore(): the Time Warp rollback prerequisite",
    },
    RuleInfo {
        id: "bad_suppression",
        family: "meta",
        desc: "every lint:allow must name a known rule and carry a non-empty reason=\"…\"",
    },
    RuleInfo {
        id: "stale_baseline",
        family: "meta",
        desc: "baseline entries whose code is gone must be deleted (run --fix-baseline)",
    },
    RuleInfo {
        id: "baseline_debt",
        family: "meta",
        desc: "the baseline must be empty: fix the finding or carry an inline \
               lint:allow(rule, reason=…) at the site",
    },
];

/// Look a rule up by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Trimmed source line (also the baseline matching key).
    pub snippet: String,
    /// Human explanation.
    pub message: String,
    /// Set by baseline application: grandfathered, does not fail --check.
    pub baselined: bool,
}

/// Crates whose non-test code must be deterministic.
const SIM_CRATES: &[&str] =
    &["pdes", "network", "fattree", "workloads", "faults", "sweep", "stream"];

/// The crate a workspace-relative path belongs to (`crates/pdes/…` →
/// `pdes`; the root `src/` is the `hrviz` facade).
fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or(if path.starts_with("src/") { "hrviz" } else { "" })
}

fn in_sim_scope(path: &str) -> bool {
    SIM_CRATES.contains(&crate_of(path))
}

/// The panic-free scope: the error-boundary crates (`cli`, `faults`,
/// `serve`), the engine and render hot paths (`pdes`, `render` — a panic
/// there takes a whole sweep or request down), the linter itself (the
/// self-check CI job), the config (user-input) paths of the two topology
/// crates, and the obs exporter/ring-buffer modules invoked from failure
/// handlers.
fn in_panic_scope(path: &str) -> bool {
    matches!(crate_of(path), "cli" | "faults" | "serve" | "pdes" | "render" | "lint")
        || path == "crates/network/src/config.rs"
        || path == "crates/fattree/src/config.rs"
        // The observability exporters run inside failure handlers
        // (watchdog trips, worker panics): they must not panic there.
        || path == "crates/obs/src/chrome.rs"
        || path == "crates/obs/src/recorder.rs"
        || path == "crates/obs/src/prom.rs"
        // The projection-script parser and request validation read socket
        // bytes (`POST /views`): a hostile script must be a structured
        // error, not a dead worker.
        || path == "crates/core/src/script.rs"
        || path == "crates/core/src/spec.rs"
        || path == "crates/core/src/request.rs"
}

/// Run the path-scoped token/lexical rules over one file. The lock and
/// counter passes live in their own modules; [`crate::analyze_file`]
/// composes all three.
pub fn check_file(f: &SourceFile, tf: &TokenFile) -> Vec<Finding> {
    let mut out = Vec::new();
    if in_sim_scope(&f.path) {
        ident_rule(f, "hash_collections", &["HashMap", "HashSet"], &mut out, |w| {
            format!("{w} in simulation code: iteration order is unseeded and varies per run")
        });
        ident_rule(f, "wall_clock", &["Instant", "SystemTime"], &mut out, |w| {
            format!("std::time::{w} in simulation code: wall-clock reads break replay")
        });
        ident_rule(
            f,
            "ambient_rng",
            &["thread_rng", "ThreadRng", "OsRng", "from_entropy", "entropy_rng"],
            &mut out,
            |w| format!("{w} in simulation code: randomness must flow from the run seed"),
        );
        float_reduction_rule(f, &mut out);
    }
    if in_panic_scope(&f.path) {
        panic_rule(f, &mut out);
        // The linter itself is unwrap-free but exempt from the index
        // audit: its token arrays (`toks`, `match_of`) are same-length by
        // construction and indices flow through the delimiter matcher,
        // an invariant the rule's local proof shapes cannot express.
        if crate_of(&f.path) != "lint" {
            slice_index_rule(f, tf, &mut out);
        }
    }
    lp_contract_rules(f, tf, &mut out);
    bad_suppression_rule(f, &mut out);
    out
}

/// Emit a finding unless the line is test code or carries a suppression.
fn emit(f: &SourceFile, rule: &'static str, at: usize, message: String, out: &mut Vec<Finding>) {
    let line = f.line_of(at);
    if f.is_test_line(line) || f.suppressed(rule, line) {
        return;
    }
    out.push(Finding {
        rule,
        file: f.path.clone(),
        line,
        snippet: f.line_text(line).to_string(),
        message,
        baselined: false,
    });
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Every word-boundary occurrence of `word` in the masked text.
fn ident_occurrences(f: &SourceFile, word: &str) -> Vec<usize> {
    let (hay, pat) = (&f.masked, word.as_bytes());
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(at) = find(hay, pat, from) {
        from = at + 1;
        let before_ok = at == 0 || !is_ident(hay[at - 1]);
        let after_ok = at + pat.len() >= hay.len() || !is_ident(hay[at + pat.len()]);
        if before_ok && after_ok {
            hits.push(at);
        }
    }
    hits
}

fn ident_rule(
    f: &SourceFile,
    rule: &'static str,
    words: &[&str],
    out: &mut Vec<Finding>,
    msg: impl Fn(&str) -> String,
) {
    for word in words {
        for at in ident_occurrences(f, word) {
            emit(f, rule, at, msg(word), out);
        }
    }
}

/// A `par_iter`-family call whose statement also contains a float-style
/// reduction combinator. The statement is approximated as "up to the next
/// `;`", which keeps closures from earlier statements out of the window.
fn float_reduction_rule(f: &SourceFile, out: &mut Vec<Finding>) {
    const SOURCES: &[&str] =
        &["par_iter", "par_iter_mut", "into_par_iter", "par_chunks", "par_bridge"];
    const SINKS: &[&[u8]] = &[b".sum(", b".product(", b".reduce(", b".fold("];
    for src in SOURCES {
        for at in ident_occurrences(f, src) {
            let end = f.masked[at..]
                .iter()
                .position(|&b| b == b';')
                .map(|p| at + p)
                .unwrap_or(f.masked.len());
            let span = &f.masked[at..end];
            if SINKS.iter().any(|sink| find(span, sink, 0).is_some()) {
                emit(
                    f,
                    "unordered_float_reduction",
                    at,
                    format!(
                        "{src} chain ends in a reduction: parallel float reduction order is \
                         nondeterministic; collect and reduce sequentially"
                    ),
                    out,
                );
            }
        }
    }
}

/// `.unwrap()`, `.expect(` and the panicking macros in the panic scope.
fn panic_rule(f: &SourceFile, out: &mut Vec<Finding>) {
    for pat in [".unwrap()", ".expect("] {
        let mut from = 0;
        while let Some(at) = find(&f.masked, pat.as_bytes(), from) {
            from = at + 1;
            emit(
                f,
                "panic_unwrap",
                at,
                format!("`{pat}` in panic-free code: return an HrvizError instead"),
                out,
            );
        }
    }
    for mac in ["panic", "unreachable", "todo", "unimplemented"] {
        for at in ident_occurrences(f, mac) {
            if f.masked.get(at + mac.len()) == Some(&b'!') {
                emit(
                    f,
                    "panic_unwrap",
                    at,
                    format!("`{mac}!` in panic-free code: return an HrvizError instead"),
                    out,
                );
            }
        }
    }
}

/// Keywords that may directly precede a `[`-group without it being an
/// index expression (`for x in [..]`, `return [..]`, `as [..]`, …).
const NOT_AN_EXPR: &[&str] = &[
    "in", "return", "break", "else", "match", "if", "while", "loop", "move", "mut", "ref", "as",
    "const", "static", "let", "dyn", "where", "yield", "box",
];

/// Syntax-aware indexing rule: `expr[…]` is flagged unless the function
/// proves the access in one of the recognised shapes:
///
/// * a numeric literal into a base declared `[T; N]` (or `&[T; N]`) in
///   the same function, with literal < N;
/// * a single-identifier index `i` where the function earlier compares
///   `i` against `base.len()` (directly, through `assert!`/`while`/`if`,
///   or via `let n = base.len()`), or iterates `for i in … base.len()` /
///   `for i in … n`;
/// * the full-range slice `[..]`, which cannot panic.
fn slice_index_rule(f: &SourceFile, tf: &TokenFile, out: &mut Vec<Finding>) {
    for (i, tok) in tf.toks.iter().enumerate() {
        if tok.kind != TokKind::Open(b'[') || i == 0 {
            continue;
        }
        let base = match tf.toks[i - 1].kind {
            TokKind::Ident => {
                let word = tf.text(f, i - 1);
                if NOT_AN_EXPR.contains(&word) {
                    continue;
                }
                Some(word.to_string())
            }
            TokKind::Close(b')') | TokKind::Close(b']') => None,
            _ => continue,
        };
        let close = tf.match_of[i];
        if close == usize::MAX {
            continue;
        }
        // The function this index lives in (innermost body containing it).
        let scope = tf
            .fns
            .iter()
            .filter_map(|fun| fun.body)
            .filter(|&(o, c)| o < i && i < c)
            .max_by_key(|&(o, _)| o);
        let inner = i + 1..close;
        if proves_in_bounds(f, tf, scope, base.as_deref(), inner, i) {
            continue;
        }
        emit(
            f,
            "slice_index",
            tok.start,
            "unproven indexing can panic on out-of-range input: guard the index against \
             .len(), use a const-sized array, or use .get() and surface an HrvizError"
                .to_string(),
            out,
        );
    }
}

/// Can the index expression `inner` into `base` be shown in-bounds from
/// the tokens of the enclosing function?
fn proves_in_bounds(
    f: &SourceFile,
    tf: &TokenFile,
    scope: Option<(usize, usize)>,
    base: Option<&str>,
    inner: std::ops::Range<usize>,
    open: usize,
) -> bool {
    let toks: Vec<usize> = inner.clone().collect();
    // `[..]` — full-range slices cannot panic.
    if toks.len() == 2 && tf.is_punct(toks[0], b'.') && tf.is_punct(toks[1], b'.') {
        return true;
    }
    let (Some((fn_open, fn_close)), Some(base)) = (scope, base) else {
        return false;
    };
    // The searchable window: the whole function (a guard after the index
    // proves nothing, but for-loop heads precede their bodies anyway, and
    // same-statement guards like `if i < v.len() { v[i] }` sit earlier in
    // token order too).
    let window = fn_open..=fn_close.min(tf.toks.len().saturating_sub(1));
    if toks.len() == 1 {
        let t = toks[0];
        match tf.toks[t].kind {
            TokKind::Num => {
                let lit: Option<usize> = tf.text(f, t).parse().ok();
                if let (Some(lit), Some(n)) = (lit, const_len_of(f, tf, window.clone(), base)) {
                    return lit < n;
                }
                false
            }
            TokKind::Ident => {
                let idx = tf.text(f, t);
                index_is_guarded(f, tf, window, base, idx, open)
            }
            _ => false,
        }
    } else {
        false
    }
}

/// `base: [T; N]` / `base: &[T; N]` declared in the function → `N`.
fn const_len_of(
    f: &SourceFile,
    tf: &TokenFile,
    window: std::ops::RangeInclusive<usize>,
    base: &str,
) -> Option<usize> {
    for i in window {
        if !tf.is_ident(f, i, base) || !tf.is_punct(i + 1, b':') || tf.is_punct(i + 2, b':') {
            continue;
        }
        let mut j = i + 2;
        while tf.is_punct(j, b'&')
            || matches!(tf.toks.get(j).map(|t| t.kind), Some(TokKind::Lifetime))
            || tf.is_ident(f, j, "mut")
        {
            j += 1;
        }
        let Some(t) = tf.toks.get(j) else { continue };
        if t.kind != TokKind::Open(b'[') {
            continue;
        }
        let close = tf.match_of[j];
        if close == usize::MAX {
            continue;
        }
        // The length is the last numeric token before the `]` (after `;`).
        let semi = (j + 1..close).rev().find(|&k| tf.is_punct(k, b';'))?;
        let num = (semi + 1..close).find(|&k| matches!(tf.toks[k].kind, TokKind::Num))?;
        if let Ok(n) = tf.text(f, num).parse() {
            return Some(n);
        }
    }
    None
}

/// Does the function compare `idx` against `base.len()` (or a recorded
/// `let n = base.len()` alias), or drive it from a `for idx in …` loop
/// bounded by them, before using it?
fn index_is_guarded(
    f: &SourceFile,
    tf: &TokenFile,
    window: std::ops::RangeInclusive<usize>,
    base: &str,
    idx: &str,
    _open: usize,
) -> bool {
    // Aliases: `let n = base.len()` (or `… = base.len().min(..)` — still a
    // bound on base).
    let mut aliases: Vec<String> = Vec::new();
    let (lo, hi) = (*window.start(), *window.end());
    let len_call_at = |k: usize| {
        tf.is_ident(f, k, base)
            && tf.is_method_dot(k + 1)
            && tf.is_ident(f, k + 2, "len")
            && matches!(tf.toks.get(k + 3).map(|t| t.kind), Some(TokKind::Open(b'(')))
    };
    for k in lo..hi.saturating_sub(4) {
        if tf.is_ident(f, k, "let")
            && matches!(tf.toks.get(k + 1).map(|t| t.kind), Some(TokKind::Ident))
            && tf.is_punct(k + 2, b'=')
            && len_call_at(k + 3)
        {
            aliases.push(tf.text(f, k + 1).to_string());
        }
    }
    let bound_at = |k: usize| -> bool {
        // `base.len()` at k, or an alias ident at k.
        len_call_at(k)
            || (matches!(tf.toks.get(k).map(|t| t.kind), Some(TokKind::Ident))
                && aliases.iter().any(|a| a == tf.text(f, k)))
    };
    for k in lo..hi {
        // `idx < bound` / `idx >= bound` (early-exit guard shape).
        if tf.is_ident(f, k, idx) {
            if tf.is_punct(k + 1, b'<') && !tf.is_punct(k + 2, b'=') && bound_at(k + 2) {
                return true;
            }
            if tf.is_punct(k + 1, b'>') && tf.is_punct(k + 2, b'=') && bound_at(k + 3) {
                return true;
            }
        }
        // `bound > idx`.
        if bound_at(k) {
            let after = if len_call_at(k) { k + 5 } else { k + 1 };
            if tf.is_punct(after, b'>')
                && !tf.is_punct(after + 1, b'=')
                && tf.is_ident(f, after + 1, idx)
            {
                return true;
            }
        }
        // `for idx in … bound` — the loop head ends at its `{`.
        if tf.is_ident(f, k, "for") && tf.is_ident(f, k + 1, idx) && tf.is_ident(f, k + 2, "in") {
            let mut j = k + 3;
            while j < hi && !matches!(tf.toks[j].kind, TokKind::Open(b'{')) {
                if bound_at(j) {
                    return true;
                }
                j += 1;
            }
        }
    }
    false
}

/// Both `Lp` contracts, from the impl blocks the token tree extracted:
/// every `impl Lp<…> for T` must override `audit`, and any that overrides
/// `on_event` must also override `snapshot` and `restore`.
fn lp_contract_rules(f: &SourceFile, tf: &TokenFile, out: &mut Vec<Finding>) {
    for im in &tf.impls {
        if im.trait_path.last().map(String::as_str) != Some("Lp") {
            continue;
        }
        let (open, close) = im.body;
        let has = |name: &str| {
            tf.fns.iter().any(|fun| fun.name == name && open < fun.kw && fun.kw < close)
        };
        let at = tf.toks[im.kw].start;
        if !has("audit") {
            emit(
                f,
                "missing_audit",
                at,
                "Lp impl without an audit() override: conservation invariants (credits, \
                 in-flight packets) go unchecked post-drain"
                    .to_string(),
                out,
            );
        }
        if has("on_event") && (!has("snapshot") || !has("restore")) {
            emit(
                f,
                "missing_state_saving",
                at,
                "Lp impl handles events but does not override snapshot()/restore(): \
                 checkpointing skips it silently and Time Warp rollback cannot ever \
                 include it"
                    .to_string(),
                out,
            );
        }
    }
}

/// Suppressions must name a known rule and carry a non-empty reason; the
/// meta-rules cannot be suppressed at all. Fires even on test lines: a
/// malformed allow is wrong anywhere.
fn bad_suppression_rule(f: &SourceFile, out: &mut Vec<Finding>) {
    for s in &f.suppressions {
        let known = rule(&s.rule).is_some();
        let meta = rule(&s.rule).is_some_and(|r| r.family == "meta");
        let reasoned = s.reason.as_deref().is_some_and(|r| !r.trim().is_empty());
        if known && reasoned && !meta {
            continue;
        }
        let message = if !known {
            format!("lint:allow names unknown rule `{}`", s.rule)
        } else if meta {
            format!("lint:allow({}) is not allowed: meta-rules cannot be suppressed", s.rule)
        } else {
            format!("lint:allow({}) is missing its mandatory reason=\"…\"", s.rule)
        };
        out.push(Finding {
            rule: "bad_suppression",
            file: f.path.clone(),
            line: s.line,
            snippet: f.line_text(s.line).to_string(),
            message,
            baselined: false,
        });
    }
}

/// For `--fix-baseline` reporting: findings per rule id.
pub fn count_by_rule(findings: &[Finding]) -> BTreeMap<&'static str, usize> {
    let mut m = BTreeMap::new();
    for f in findings {
        *m.entry(f.rule).or_insert(0) += 1;
    }
    m
}
