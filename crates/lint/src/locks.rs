//! Lock-order and blocking-under-lock analysis.
//!
//! Per function, the pass finds every lock acquisition (`.lock()`,
//! `.read()` / `.write()` with empty argument lists — the empty parens
//! discriminate `RwLock` from `io::Read`/`io::Write` — and their `try_`
//! variants), derives the *guard scope* from the token tree:
//!
//! * `let guard = m.lock()…;` — the guard lives to the end of the
//!   enclosing block, or to an explicit `drop(guard)`;
//! * `if let` / `while let` / `match` heads — the guard lives to the end
//!   of the construct's brace block;
//! * an unbound temporary (`m.lock().unwrap().field = x;`) — the guard
//!   dies at the end of the statement.
//!
//! Lock *identity* is `Type.field` for `self.…` receivers (the enclosing
//! impl type qualifies the field next to the call) and `filestem.name`
//! otherwise — precise enough to distinguish every Mutex in the
//! workspace without type inference.
//!
//! Inside a live scope the pass then flags:
//!
//! * re-acquisition of the same lock (guaranteed self-deadlock with
//!   std's non-reentrant `Mutex`) — `lock_order_cycle`;
//! * nested acquisition of a *different* lock — recorded as a directed
//!   edge for the workspace-global acquisition graph, where
//!   [`cycle_findings`] flags any cycle (the classic AB/BA inversion) —
//!   `lock_order_cycle`;
//! * blocking calls (file I/O, fsync, socket accept/connect, channel
//!   recv, `WorkerPool::submit`, sleeps) — `blocking_under_lock`. A
//!   `Condvar::wait(guard)` releases the guard it is handed, so it only
//!   fires when *another* lock is still held.
//!
//! Calls to same-file functions (`self.method()`, `helper()`,
//! `Type::assoc()`) propagate the callee's acquisitions and blocking
//! calls into the caller's scope (transitively, cycle-safe), so moving
//! the I/O one function away does not hide it. Propagation is
//! deliberately restricted to names resolvable *within the file* —
//! cross-file name matching would misattribute common method names like
//! `get` or `write`.

use crate::facts::LockEdge;
use crate::rules::Finding;
use crate::source::SourceFile;
use crate::tokens::{TokKind, TokenFile};
use std::collections::{BTreeMap, BTreeSet};

/// Methods that acquire a lock. `(name, needs_empty_args, is_try)`.
const ACQUIRES: &[(&str, bool, bool)] = &[
    ("lock", true, false),
    ("read", true, false),
    ("write", true, false),
    ("try_lock", true, true),
    ("try_read", true, true),
    ("try_write", true, true),
];

/// Method calls that block: file and socket I/O, fsync, channel receives,
/// queue submission, durable persists.
const BLOCKING_METHODS: &[(&str, &str)] = &[
    ("sync_all", "fsync"),
    ("sync_data", "fsync"),
    ("write_all", "file/socket write"),
    ("write_line", "trace write"),
    ("flush", "I/O flush"),
    ("read_exact", "file/socket read"),
    ("read_to_end", "file/socket read"),
    ("read_to_string", "file/socket read"),
    ("read_dir", "directory scan"),
    ("metadata", "file stat"),
    ("accept", "socket accept"),
    ("connect", "socket connect"),
    ("recv", "channel recv"),
    ("recv_timeout", "channel recv"),
    ("submit", "worker-pool submit"),
    ("persist", "durable persist"),
];

/// `module::fn(` style blocking calls: `(module, fn, what)`.
const BLOCKING_PATHS: &[(&str, &str, &str)] = &[
    ("fs", "metadata", "file stat"),
    ("fs", "read", "file read"),
    ("fs", "read_to_string", "file read"),
    ("fs", "read_dir", "directory scan"),
    ("fs", "write", "file write"),
    ("fs", "copy", "file copy"),
    ("fs", "rename", "file rename"),
    ("fs", "create_dir_all", "mkdir"),
    ("fs", "remove_file", "file delete"),
    ("fs", "remove_dir_all", "recursive delete"),
    ("File", "open", "file open"),
    ("File", "create", "file create"),
    ("TcpStream", "connect", "socket connect"),
    ("thread", "sleep", "sleep"),
];

/// One lock acquisition with its derived scope.
struct LockSite {
    /// `Type.field` / `filestem.name` identity.
    id: String,
    /// Token index of the acquiring method-call dot.
    tok: usize,
    line: usize,
    /// Exclusive token index where the guard dies.
    scope_end: usize,
    is_try: bool,
    /// Bound guard name (named bindings only).
    guard: Option<String>,
}

/// What a function does, for same-file call propagation.
struct FnSummary {
    /// Lock ids acquired anywhere in the body.
    acquires: Vec<String>,
    /// Blocking calls anywhere in the body: `(what, line)`.
    blocking: Vec<(String, usize)>,
    /// Same-file callees by summary key.
    calls: Vec<String>,
}

/// Per-file lock analysis: emits local findings and returns the lock
/// acquisition edges for the global cycle pass.
pub fn analyze(src: &SourceFile, tf: &TokenFile, findings: &mut Vec<Finding>) -> Vec<LockEdge> {
    let stem = file_stem(&src.path);
    let mut edges = Vec::new();

    // Pass 1: raw per-fn facts.
    let mut sites_by_fn: Vec<Vec<LockSite>> = Vec::new();
    let mut summaries: BTreeMap<String, FnSummary> = BTreeMap::new();
    let mut fn_keys: Vec<Option<String>> = Vec::new();
    for f in &tf.fns {
        let Some((open, close)) = f.body else {
            sites_by_fn.push(Vec::new());
            fn_keys.push(None);
            continue;
        };
        let sites = lock_sites(src, tf, &stem, &f.qualified, open, close);
        let blocking = blocking_sites(src, tf, open, close);
        let calls = call_sites(src, tf, &f.qualified, open, close);
        summaries.insert(
            f.qualified.clone(),
            FnSummary {
                acquires: sites.iter().map(|s| s.id.clone()).collect(),
                blocking: blocking.iter().map(|b| (b.what.clone(), b.line)).collect(),
                calls: calls.iter().map(|c| c.key.clone()).collect(),
            },
        );
        sites_by_fn.push(sites);
        fn_keys.push(Some(f.qualified.clone()));

        // Blocking-in-scope and nesting checks, direct.
        for a in sites_by_fn.last().into_iter().flatten() {
            for b in sites_by_fn.last().into_iter().flatten() {
                if b.tok <= a.tok || b.tok >= a.scope_end {
                    continue;
                }
                if b.id == a.id {
                    if !a.is_try && !b.is_try {
                        emit(
                            src,
                            "lock_order_cycle",
                            b.line,
                            format!(
                                "`{}` re-acquired while its own guard is still live: \
                                 std Mutex/RwLock are non-reentrant, this self-deadlocks",
                                a.id
                            ),
                            findings,
                        );
                    }
                } else {
                    push_edge(src, &mut edges, &a.id, &b.id, b.line);
                }
            }
            for blk in &blocking {
                if blk.tok <= a.tok || blk.tok >= a.scope_end {
                    continue;
                }
                // Condvar wait releases the guard it consumes: only flag
                // when a *different* lock is held across the wait.
                if let Some(waited) = &blk.waits_on {
                    if a.guard.as_deref() == Some(waited.as_str()) {
                        continue;
                    }
                    emit(
                        src,
                        "blocking_under_lock",
                        blk.line,
                        format!(
                            "condvar wait while `{}` is held: the wait releases only its own \
                             guard, every other waiter on `{}` stalls",
                            a.id, a.id
                        ),
                        findings,
                    );
                } else {
                    emit(
                        src,
                        "blocking_under_lock",
                        blk.line,
                        format!(
                            "{} while `{}` is held: every thread contending for the lock \
                             stalls behind this call",
                            blk.what, a.id
                        ),
                        findings,
                    );
                }
            }
        }
    }

    // Pass 2: transitive closure of the same-file call graph.
    let closed = close_summaries(&summaries);

    // Pass 3: propagate callee effects into held scopes.
    for (fi, f) in tf.fns.iter().enumerate() {
        let Some((open, close)) = f.body else { continue };
        let calls = call_sites(src, tf, &f.qualified, open, close);
        for a in &sites_by_fn[fi] {
            for c in &calls {
                if c.tok <= a.tok || c.tok >= a.scope_end {
                    continue;
                }
                let Some(eff) = closed.get(&c.key) else { continue };
                for acq in &eff.acquires {
                    // A propagated self-edge is the *caller's* guard still
                    // being the same lock — re-entry through a helper is
                    // real, but name-based resolution cannot distinguish
                    // it from a helper that locks after the caller
                    // returns; the direct check above handles the
                    // in-scope case precisely.
                    if acq != &a.id {
                        push_edge(src, &mut edges, &a.id, acq, c.line);
                    }
                }
                for (what, _line) in &eff.blocking {
                    emit(
                        src,
                        "blocking_under_lock",
                        c.line,
                        format!(
                            "call to `{}` does {} while `{}` is held: every thread \
                             contending for the lock stalls behind it",
                            c.key, what, a.id
                        ),
                        findings,
                    );
                }
            }
        }
    }

    edges.sort_by(|a, b| (a.line, &a.held, &a.acquired).cmp(&(b.line, &b.held, &b.acquired)));
    edges.dedup_by(|a, b| a.held == b.held && a.acquired == b.acquired && a.line == b.line);
    edges
}

/// The workspace-global pass: find cycles in the union acquisition graph
/// and report every non-suppressed edge that participates in one.
pub fn cycle_findings(edges: &[LockEdge]) -> Vec<Finding> {
    // Adjacency on lock ids (deterministic order).
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.held).or_default().insert(&e.acquired);
        adj.entry(&e.acquired).or_default();
    }
    let scc_of = tarjan(&adj);
    // A component with ≥2 nodes (or a self-loop, which per-file analysis
    // already reported) is a deadlock-capable cycle.
    let mut cyclic: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
    for (node, &c) in &scc_of {
        cyclic.entry(c).or_default().push(node);
    }
    cyclic.retain(|_, nodes| nodes.len() >= 2);

    let mut out = Vec::new();
    for e in edges {
        if e.suppressed {
            continue;
        }
        let (Some(&ca), Some(&cb)) = (scc_of.get(e.held.as_str()), scc_of.get(e.acquired.as_str()))
        else {
            continue;
        };
        if ca != cb {
            continue;
        }
        let Some(members) = cyclic.get(&ca) else { continue };
        out.push(Finding {
            rule: "lock_order_cycle",
            file: e.file.clone(),
            line: e.line,
            snippet: e.snippet.clone(),
            message: format!(
                "acquiring `{}` while holding `{}` participates in a lock cycle {{{}}}: \
                 another thread taking the opposite order deadlocks",
                e.acquired,
                e.held,
                members.join(", ")
            ),
        });
    }
    out
}

fn push_edge(src: &SourceFile, edges: &mut Vec<LockEdge>, held: &str, acquired: &str, line: usize) {
    if src.is_test_line(line) {
        return;
    }
    edges.push(LockEdge {
        held: held.to_string(),
        acquired: acquired.to_string(),
        file: src.path.clone(),
        line,
        snippet: src.line_text(line).to_string(),
        suppressed: src.suppressed("lock_order_cycle", line),
    });
}

fn emit(
    src: &SourceFile,
    rule: &'static str,
    line: usize,
    message: String,
    out: &mut Vec<Finding>,
) {
    if src.is_test_line(line) || src.suppressed(rule, line) {
        return;
    }
    let f = Finding {
        rule,
        file: src.path.clone(),
        line,
        snippet: src.line_text(line).to_string(),
        message,
    };
    if !out.contains(&f) {
        out.push(f);
    }
}

/// Every lock acquisition in `[open, close]`, with derived scopes.
fn lock_sites(
    src: &SourceFile,
    tf: &TokenFile,
    stem: &str,
    fn_qualified: &str,
    open: usize,
    close: usize,
) -> Vec<LockSite> {
    let impl_type = fn_qualified.split("::").next().filter(|t| *t != fn_qualified);
    let mut sites = Vec::new();
    for i in open + 1..close {
        if !tf.is_method_dot(i) {
            continue;
        }
        let Some((_, needs_empty, is_try)) =
            ACQUIRES.iter().find(|(m, _, _)| tf.is_ident(src, i + 1, m)).copied()
        else {
            continue;
        };
        let Some(paren) = tf.toks.get(i + 2) else { continue };
        if paren.kind != TokKind::Open(b'(') {
            continue;
        }
        if needs_empty && tf.match_of[i + 2] != i + 3 {
            continue; // `.read(buf)` is io::Read, not RwLock
        }
        let segs = receiver_segments(src, tf, i);
        if segs.is_empty() {
            continue;
        }
        let first = segs.last().map(String::as_str).unwrap_or("");
        let field = segs.first().cloned().unwrap_or_default();
        let qualifier =
            if first == "self" { impl_type.unwrap_or(stem).to_string() } else { stem.to_string() };
        let id = format!("{qualifier}.{field}");
        let recv_start = receiver_start(tf, i, segs.len());
        let (scope_end, guard) = guard_scope(src, tf, recv_start, i, close);
        sites.push(LockSite {
            id,
            tok: i,
            line: src.line_of(tf.toks[i].start),
            scope_end,
            is_try,
            guard,
        });
    }
    sites
}

/// Walk the receiver chain backwards from the acquiring dot; returns the
/// path segments innermost-first (`self.a.b.lock()` → `[b, a, self]`).
fn receiver_segments(src: &SourceFile, tf: &TokenFile, dot: usize) -> Vec<String> {
    let mut segs = Vec::new();
    let mut j = dot;
    loop {
        if j == 0 {
            break;
        }
        match tf.toks[j - 1].kind {
            TokKind::Ident => {
                segs.push(tf.text(src, j - 1).to_string());
                j -= 1;
                if j >= 1 && tf.is_method_dot(j - 1) {
                    j -= 1;
                } else if j >= 2 && tf.is_punct(j - 1, b':') && tf.is_punct(j - 2, b':') {
                    j -= 2;
                } else {
                    break;
                }
            }
            TokKind::Close(b')') => {
                // A call in the chain (`self.store().lock()`): hop to its
                // opening paren and keep walking for the method name.
                let m = tf.match_of[j - 1];
                if m == usize::MAX || m == 0 {
                    break;
                }
                j = m;
            }
            _ => break,
        }
    }
    segs
}

/// Token index where the receiver chain starts (approximate: `segs` path
/// segments plus their separators back from the dot).
fn receiver_start(tf: &TokenFile, dot: usize, segs: usize) -> usize {
    let mut j = dot;
    let mut remaining = segs;
    while remaining > 0 && j > 0 {
        if matches!(tf.toks[j - 1].kind, TokKind::Ident) {
            remaining -= 1;
        }
        j -= 1;
    }
    j
}

/// Scope of the guard produced by the acquisition at `dot`, and the bound
/// name if the statement names one.
fn guard_scope(
    src: &SourceFile,
    tf: &TokenFile,
    recv_start: usize,
    dot: usize,
    body_close: usize,
) -> (usize, Option<String>) {
    // Find the statement head: walk back to the previous `;`, `{` or `}`.
    let mut h = recv_start;
    while h > 0 {
        match tf.toks[h - 1].kind {
            TokKind::Punct(b';') | TokKind::Open(b'{') | TokKind::Close(b'}') => break,
            _ => h -= 1,
        }
    }
    let head_is = |w: &str| tf.is_ident(src, h, w);
    if head_is("let") {
        let guard = binding_name(src, tf, h + 1);
        match guard {
            // `let _ = …` drops immediately: treat as a temporary.
            Some(ref g) if g == "_" => (statement_end(tf, dot, body_close), None),
            guard => {
                let block = tf.enclosing_brace[dot];
                let end = if block == usize::MAX { body_close } else { tf.match_of[block] };
                let end = if end == usize::MAX { body_close } else { end };
                (drop_cutoff(src, tf, dot, end, guard.as_deref()), guard)
            }
        }
    } else if head_is("if") || head_is("while") || head_is("match") {
        // Guard bound in a conditional head lives for the construct's
        // brace block.
        let guard = (h + 1..dot)
            .find(|&k| tf.is_ident(src, k, "let"))
            .and_then(|k| binding_name(src, tf, k + 1));
        let mut k = dot;
        while k < body_close && !matches!(tf.toks[k].kind, TokKind::Open(b'{')) {
            k = match tf.toks[k].kind {
                TokKind::Open(_) => tf.after_group(k),
                _ => k + 1,
            };
        }
        let end = if k < body_close && tf.match_of[k] != usize::MAX {
            tf.match_of[k]
        } else {
            statement_end(tf, dot, body_close)
        };
        (drop_cutoff(src, tf, dot, end, guard.as_deref()), guard)
    } else {
        (statement_end(tf, dot, body_close), None)
    }
}

/// The bound identifier after `let` (skipping `mut` and one level of
/// tuple-struct pattern like `Ok(g)` / `Some(g)`).
fn binding_name(src: &SourceFile, tf: &TokenFile, mut i: usize) -> Option<String> {
    if tf.is_ident(src, i, "mut") {
        i += 1;
    }
    if !matches!(tf.toks.get(i)?.kind, TokKind::Ident) {
        return None;
    }
    if matches!(tf.toks.get(i + 1).map(|t| t.kind), Some(TokKind::Open(b'('))) {
        let mut j = i + 2;
        if tf.is_ident(src, j, "mut") {
            j += 1;
        }
        if matches!(tf.toks.get(j).map(|t| t.kind), Some(TokKind::Ident)) {
            return Some(tf.text(src, j).to_string());
        }
    }
    Some(tf.text(src, i).to_string())
}

/// First token past the statement containing `from` (the `;` at this
/// nesting level, skipping nested groups).
fn statement_end(tf: &TokenFile, from: usize, body_close: usize) -> usize {
    let mut i = from;
    while i < body_close {
        match tf.toks[i].kind {
            TokKind::Open(_) => i = tf.after_group(i),
            TokKind::Punct(b';') => return i + 1,
            TokKind::Close(_) => return i,
            _ => i += 1,
        }
    }
    body_close
}

/// Shrink a guard scope at an explicit `drop(guard)`.
fn drop_cutoff(
    src: &SourceFile,
    tf: &TokenFile,
    from: usize,
    end: usize,
    guard: Option<&str>,
) -> usize {
    let Some(g) = guard else { return end };
    for i in from..end.min(tf.toks.len().saturating_sub(3)) {
        if tf.is_ident(src, i, "drop")
            && matches!(tf.toks[i + 1].kind, TokKind::Open(b'('))
            && tf.is_ident(src, i + 2, g)
            && matches!(tf.toks[i + 3].kind, TokKind::Close(b')'))
        {
            return i;
        }
    }
    end
}

struct BlockingSite {
    tok: usize,
    line: usize,
    what: String,
    /// For condvar waits: the guard identifier handed to `wait(…)`.
    waits_on: Option<String>,
}

/// Every blocking call in `[open, close]`.
fn blocking_sites(
    src: &SourceFile,
    tf: &TokenFile,
    open: usize,
    close: usize,
) -> Vec<BlockingSite> {
    let mut out = Vec::new();
    for i in open + 1..close {
        // Method style: `.name(`.
        if tf.is_method_dot(i)
            && matches!(tf.toks.get(i + 2).map(|t| t.kind), Some(TokKind::Open(b'(')))
        {
            if let Some((_, what)) =
                BLOCKING_METHODS.iter().find(|(m, _)| tf.is_ident(src, i + 1, m))
            {
                out.push(BlockingSite {
                    tok: i,
                    line: src.line_of(tf.toks[i].start),
                    what: (*what).to_string(),
                    waits_on: None,
                });
                continue;
            }
            if ["wait", "wait_timeout", "wait_while", "wait_timeout_while"]
                .iter()
                .any(|m| tf.is_ident(src, i + 1, m))
            {
                let arg = (i + 3 < tf.toks.len() && matches!(tf.toks[i + 3].kind, TokKind::Ident))
                    .then(|| tf.text(src, i + 3).to_string());
                out.push(BlockingSite {
                    tok: i,
                    line: src.line_of(tf.toks[i].start),
                    what: "condvar wait".to_string(),
                    waits_on: Some(arg.unwrap_or_default()),
                });
                continue;
            }
        }
        // Path style: `module::name(`.
        if matches!(tf.toks[i].kind, TokKind::Ident)
            && tf.is_punct(i + 1, b':')
            && tf.is_punct(i + 2, b':')
            && matches!(tf.toks.get(i + 3).map(|t| t.kind), Some(TokKind::Ident))
            && matches!(tf.toks.get(i + 4).map(|t| t.kind), Some(TokKind::Open(b'(')))
        {
            let module = tf.text(src, i);
            let name = tf.text(src, i + 3);
            if let Some((_, _, what)) =
                BLOCKING_PATHS.iter().find(|(m, n, _)| *m == module && *n == name)
            {
                out.push(BlockingSite {
                    tok: i,
                    line: src.line_of(tf.toks[i].start),
                    what: (*what).to_string(),
                    waits_on: None,
                });
            }
        }
    }
    out
}

struct CallSite {
    tok: usize,
    line: usize,
    /// Resolution key into the per-file summary map.
    key: String,
}

/// Same-file-resolvable call sites in `[open, close]`: `self.m(…)`,
/// `Type::m(…)` and bare `m(…)`.
fn call_sites(
    src: &SourceFile,
    tf: &TokenFile,
    fn_qualified: &str,
    open: usize,
    close: usize,
) -> Vec<CallSite> {
    let impl_type = fn_qualified.split("::").next().filter(|t| *t != fn_qualified);
    let mut out = Vec::new();
    for i in open + 1..close {
        if !matches!(tf.toks[i].kind, TokKind::Ident) {
            continue;
        }
        if !matches!(tf.toks.get(i + 1).map(|t| t.kind), Some(TokKind::Open(b'('))) {
            continue;
        }
        let name = tf.text(src, i);
        let line = src.line_of(tf.toks[i].start);
        // `self.m(` — resolve through the enclosing impl type.
        if i >= 2 && tf.is_method_dot(i - 1) && tf.is_ident(src, i - 2, "self") {
            if let Some(ty) = impl_type {
                out.push(CallSite { tok: i, line, key: format!("{ty}::{name}") });
            }
            continue;
        }
        // `Type::m(`.
        if i >= 3
            && tf.is_punct(i - 1, b':')
            && tf.is_punct(i - 2, b':')
            && matches!(tf.toks[i - 3].kind, TokKind::Ident)
        {
            let ty = tf.text(src, i - 3);
            out.push(CallSite { tok: i, line, key: format!("{ty}::{name}") });
            continue;
        }
        // Bare `m(` — not a method call on another receiver, not a macro,
        // not a declaration.
        let prev = i.checked_sub(1).map(|p| tf.toks[p].kind);
        let is_decl = i >= 1 && tf.is_ident(src, i - 1, "fn");
        let is_macro = matches!(tf.toks.get(i + 1).map(|t| t.kind), Some(TokKind::Punct(b'!')));
        let dotted = i >= 1 && tf.is_punct(i - 1, b'.');
        if !is_decl && !is_macro && !dotted && !matches!(prev, Some(TokKind::Punct(b':'))) {
            out.push(CallSite { tok: i, line, key: name.to_string() });
        }
    }
    out
}

/// Transitive closure of acquisitions and blocking over same-file calls.
fn close_summaries(summaries: &BTreeMap<String, FnSummary>) -> BTreeMap<String, FnSummary> {
    let keys: Vec<String> = summaries.keys().cloned().collect();
    let mut closed: BTreeMap<String, FnSummary> = BTreeMap::new();
    for key in &keys {
        let mut acquires = BTreeSet::new();
        let mut blocking = Vec::new();
        let mut seen = BTreeSet::new();
        let mut stack = vec![key.clone()];
        while let Some(k) = stack.pop() {
            if !seen.insert(k.clone()) {
                continue;
            }
            let Some(s) = summaries.get(&k) else { continue };
            acquires.extend(s.acquires.iter().cloned());
            blocking.extend(s.blocking.iter().cloned());
            stack.extend(s.calls.iter().cloned());
        }
        blocking.sort();
        blocking.dedup();
        closed.insert(
            key.clone(),
            FnSummary { acquires: acquires.into_iter().collect(), blocking, calls: Vec::new() },
        );
    }
    closed
}

/// Iterative Tarjan SCC; returns node → component id.
fn tarjan<'a>(adj: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> BTreeMap<&'a str, usize> {
    struct State<'a> {
        index: BTreeMap<&'a str, usize>,
        low: BTreeMap<&'a str, usize>,
        on_stack: BTreeSet<&'a str>,
        stack: Vec<&'a str>,
        next: usize,
        comp_of: BTreeMap<&'a str, usize>,
        comps: usize,
    }
    let mut st = State {
        index: BTreeMap::new(),
        low: BTreeMap::new(),
        on_stack: BTreeSet::new(),
        stack: Vec::new(),
        next: 0,
        comp_of: BTreeMap::new(),
        comps: 0,
    };
    // Explicit work stack: (node, neighbour iterator position).
    for &root in adj.keys() {
        if st.index.contains_key(root) {
            continue;
        }
        let mut work: Vec<(&str, usize)> = vec![(root, 0)];
        while let Some((v, ni)) = work.pop() {
            if ni == 0 {
                st.index.insert(v, st.next);
                st.low.insert(v, st.next);
                st.next += 1;
                st.stack.push(v);
                st.on_stack.insert(v);
            }
            let neighbours: Vec<&str> =
                adj.get(v).map(|s| s.iter().copied().collect()).unwrap_or_default();
            if let Some(&w) = neighbours.get(ni) {
                work.push((v, ni + 1));
                if !st.index.contains_key(w) {
                    work.push((w, 0));
                } else if st.on_stack.contains(w) {
                    let lw = st.index[w].min(st.low[v]);
                    st.low.insert(v, lw);
                }
            } else {
                // All neighbours done: close the component if v is a root.
                if let Some(&(parent, _)) = work.last() {
                    let lv = st.low[v].min(st.low[parent]);
                    st.low.insert(parent, lv);
                }
                if st.low[v] == st.index[v] {
                    let id = st.comps;
                    st.comps += 1;
                    while let Some(w) = st.stack.pop() {
                        st.on_stack.remove(w);
                        st.comp_of.insert(w, id);
                        if w == v {
                            break;
                        }
                    }
                }
            }
        }
    }
    st.comp_of
}

fn file_stem(path: &str) -> String {
    path.rsplit('/').next().unwrap_or(path).trim_end_matches(".rs").to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::TokenFile;

    fn run(text: &str) -> (Vec<Finding>, Vec<LockEdge>) {
        let src = SourceFile::new("crates/serve/src/demo.rs", text);
        let tf = TokenFile::new(&src);
        let mut findings = Vec::new();
        let edges = analyze(&src, &tf, &mut findings);
        (findings, edges)
    }

    #[test]
    fn nested_distinct_locks_record_an_edge() {
        let (f, e) =
            run("struct S { a: Mutex<u8>, b: Mutex<u8> }\nimpl S {\n  fn f(&self) {\n    \
             let g = self.a.lock().unwrap();\n    let h = self.b.lock().unwrap();\n  }\n}");
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(e.len(), 1, "{e:?}");
        assert_eq!(e[0].held, "S.a");
        assert_eq!(e[0].acquired, "S.b");
    }

    #[test]
    fn reacquiring_the_same_lock_is_a_self_deadlock() {
        let (f, _) = run("impl S {\n  fn f(&self) {\n    let g = self.a.lock().unwrap();\n    \
             let h = self.a.lock().unwrap();\n  }\n}");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lock_order_cycle");
        assert!(f[0].message.contains("re-acquired"), "{}", f[0].message);
    }

    #[test]
    fn temporary_guard_scope_ends_at_the_statement() {
        let (f, e) = run("impl S {\n  fn f(&self) {\n    self.a.lock().unwrap().push(1);\n    \
             let h = self.b.lock().unwrap();\n  }\n}");
        assert!(f.is_empty(), "{f:?}");
        assert!(e.is_empty(), "temporary died before the second acquisition: {e:?}");
    }

    #[test]
    fn drop_releases_a_named_guard_early() {
        let (f, e) = run(
            "impl S {\n  fn f(&self) {\n    let g = self.a.lock().unwrap();\n    drop(g);\n    \
             let h = self.b.lock().unwrap();\n  }\n}",
        );
        assert!(f.is_empty(), "{f:?}");
        assert!(e.is_empty(), "{e:?}");
    }

    #[test]
    fn file_io_under_lock_is_flagged() {
        let (f, _) = run("impl S {\n  fn f(&self) {\n    let g = self.a.lock().unwrap();\n    \
             std::fs::write(\"p\", b\"x\").unwrap();\n  }\n}");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "blocking_under_lock");
    }

    #[test]
    fn condvar_wait_on_its_own_guard_is_fine() {
        let (f, _) =
            run("impl S {\n  fn f(&self) {\n    let mut g = self.m.lock().unwrap();\n    \
             g = self.cv.wait(g).unwrap();\n  }\n}");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn condvar_wait_under_another_lock_is_flagged() {
        let (f, _) =
            run("impl S {\n  fn f(&self) {\n    let o = self.other.lock().unwrap();\n    \
             let mut g = self.m.lock().unwrap();\n    g = self.cv.wait(g).unwrap();\n  }\n}");
        assert!(
            f.iter().any(|f| f.rule == "blocking_under_lock" && f.message.contains("condvar")),
            "{f:?}"
        );
    }

    #[test]
    fn callee_io_propagates_to_the_held_scope() {
        let (f, _) =
            run("impl S {\n  fn save(&self) { std::fs::write(\"p\", b\"x\").unwrap(); }\n  \
             fn f(&self) {\n    let g = self.a.lock().unwrap();\n    self.save();\n  }\n}");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "blocking_under_lock");
        assert!(f[0].message.contains("S::save"), "{}", f[0].message);
    }

    #[test]
    fn read_with_arguments_is_io_not_rwlock() {
        let (f, e) = run(
            "impl S {\n  fn f(&self, buf: &mut [u8]) {\n    let g = self.a.lock().unwrap();\n    \
             let n = self.sock.read(buf);\n  }\n}",
        );
        // `.read(buf)` is io::Read: no second lock edge...
        assert!(e.is_empty(), "{e:?}");
        // ...and it is not in the blocking list either (socket reads show
        // up as read_exact/read_to_end; a bare .read is too ambiguous).
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn opposite_order_across_functions_is_a_cycle() {
        let (f, e) = run("impl S {\n  fn ab(&self) {\n    let g = self.a.lock().unwrap();\n    \
             let h = self.b.lock().unwrap();\n  }\n  fn ba(&self) {\n    \
             let h = self.b.lock().unwrap();\n    let g = self.a.lock().unwrap();\n  }\n}");
        assert!(f.is_empty(), "no local finding: {f:?}");
        let cyc = cycle_findings(&e);
        assert_eq!(cyc.len(), 2, "both edges participate: {cyc:?}");
        assert!(cyc[0].message.contains("cycle"), "{}", cyc[0].message);
    }

    #[test]
    fn consistent_order_is_not_a_cycle() {
        let (_, e) = run("impl S {\n  fn one(&self) {\n    let g = self.a.lock().unwrap();\n    \
             let h = self.b.lock().unwrap();\n  }\n  fn two(&self) {\n    \
             let g = self.a.lock().unwrap();\n    let h = self.b.lock().unwrap();\n  }\n}");
        assert!(cycle_findings(&e).is_empty());
    }
}
