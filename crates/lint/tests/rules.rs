//! Fixture suite: one positive + one negative case per rule. Deleting any
//! rule's implementation makes at least one of these fail.

use hrviz_lint::lint_text;
use std::path::Path;

/// Lint `tests/fixtures/<fixture>.rs` as if it lived at `pseudo_path`
/// (rule scoping keys off the path), returning the rule ids that fired.
fn rules_fired(pseudo_path: &str, fixture: &str) -> Vec<&'static str> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {}: {e}", path.display()));
    let mut rules: Vec<&'static str> =
        lint_text(pseudo_path, &text).iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

const SIM_PATH: &str = "crates/pdes/src/fixture.rs";
const BOUNDARY_PATH: &str = "crates/cli/src/fixture.rs";

#[test]
fn unordered_float_reduction_rule() {
    assert!(rules_fired(SIM_PATH, "unordered_float_reduction_positive.rs")
        .contains(&"unordered_float_reduction"));
    assert_eq!(rules_fired(SIM_PATH, "unordered_float_reduction_negative.rs"), Vec::<&str>::new());
}

#[test]
fn slice_index_rule() {
    assert!(rules_fired(BOUNDARY_PATH, "slice_index_positive.rs").contains(&"slice_index"));
    assert_eq!(rules_fired(BOUNDARY_PATH, "slice_index_negative.rs"), Vec::<&str>::new());
}

#[test]
fn slice_index_rule_accepts_proven_bounds() {
    // The syntax-aware upgrade: len guards, early exits, len-bounded
    // loops, len aliases and const-sized arrays all pass.
    assert_eq!(rules_fired(BOUNDARY_PATH, "slice_index_guarded_negative.rs"), Vec::<&str>::new());
}

#[test]
fn missing_state_saving_rule() {
    let any_path = "crates/network/src/fixture.rs";
    let fired = rules_fired(any_path, "missing_state_saving_positive.rs");
    assert_eq!(fired, vec!["missing_state_saving"], "audit is overridden, state saving is not");
    assert_eq!(rules_fired(any_path, "missing_state_saving_negative.rs"), Vec::<&str>::new());
}

#[test]
fn lock_order_cycle_rule() {
    let any_path = "crates/core/src/fixture.rs";
    assert!(rules_fired(any_path, "lock_cycle_positive.rs").contains(&"lock_order_cycle"));
    assert_eq!(rules_fired(any_path, "lock_cycle_negative.rs"), Vec::<&str>::new());
}

#[test]
fn blocking_under_lock_rule() {
    let any_path = "crates/core/src/fixture.rs";
    assert!(
        rules_fired(any_path, "blocking_under_lock_positive.rs").contains(&"blocking_under_lock")
    );
    assert_eq!(rules_fired(any_path, "blocking_under_lock_negative.rs"), Vec::<&str>::new());
}

#[test]
fn counter_drift_rule_flags_non_literal_names() {
    let any_path = "crates/core/src/fixture.rs";
    assert_eq!(rules_fired(any_path, "counter_drift_positive.rs"), vec!["counter_drift"]);
    assert_eq!(rules_fired(any_path, "counter_drift_negative.rs"), Vec::<&str>::new());
}

#[test]
fn missing_audit_rule() {
    // The invariant family is workspace-wide, not sim-scoped: use a path
    // outside the determinism scope to prove that.
    let any_path = "crates/render/src/fixture.rs";
    assert!(rules_fired(any_path, "missing_audit_positive.rs").contains(&"missing_audit"));
    assert_eq!(rules_fired(any_path, "missing_audit_negative.rs"), Vec::<&str>::new());
}

#[test]
fn bad_suppression_rule() {
    let fired = rules_fired(SIM_PATH, "bad_suppression_positive.rs");
    assert!(fired.contains(&"bad_suppression"));
    // The malformed allows do NOT suppress the underlying finding.
    assert!(fired.contains(&"unordered_float_reduction"));
    assert_eq!(rules_fired(SIM_PATH, "bad_suppression_negative.rs"), Vec::<&str>::new());
}

#[test]
fn panic_scope_is_boundary_only() {
    // The same indexing fixture is clean when it lives in a crate outside
    // the panic-free scope (e.g. core) — scoping, not a global ban.
    assert_eq!(
        rules_fired("crates/core/src/fixture.rs", "slice_index_positive.rs"),
        Vec::<&str>::new()
    );
    // The engine and render hot paths joined the scope in PR 9: a panic
    // there takes a whole sweep or request down.
    for hot in ["crates/pdes/src/fixture.rs", "crates/render/src/fixture.rs"] {
        assert!(rules_fired(hot, "slice_index_positive.rs").contains(&"slice_index"), "{hot}");
    }
}

#[test]
fn serve_request_path_is_in_the_panic_scope() {
    // The HTTP request path must answer errors, not unwind under a worker:
    // the indexing rule fires for code placed in crates/serve.
    let serve_path = "crates/serve/src/fixture.rs";
    assert!(rules_fired(serve_path, "slice_index_positive.rs").contains(&"slice_index"));
    // ...but serve is NOT in the determinism scope: a server may reduce
    // in parallel (latency histograms, response caches).
    assert_eq!(
        rules_fired(serve_path, "unordered_float_reduction_positive.rs"),
        Vec::<&str>::new()
    );
}

#[test]
fn obs_exporter_modules_join_the_panic_scope() {
    // The exporter and ring-buffer modules run inside failure handlers
    // (flight dumps on watchdog trips and worker panics): the indexing
    // rule fires for code placed in any of the three allow sites.
    for site in ["crates/obs/src/chrome.rs", "crates/obs/src/recorder.rs", "crates/obs/src/prom.rs"]
    {
        let fired = rules_fired(site, "obs_exporter_positive.rs");
        assert_eq!(fired, vec!["slice_index"], "{site}");
        assert_eq!(rules_fired(site, "obs_exporter_negative.rs"), Vec::<&str>::new(), "{site}");
    }
    // The scope is module-precise, not crate-wide: the same indexing
    // fixture is clean elsewhere in obs (the collector may assert).
    assert_eq!(
        rules_fired("crates/obs/src/collector.rs", "obs_exporter_positive.rs"),
        Vec::<&str>::new()
    );
}

#[test]
fn determinism_scope_is_sim_only() {
    // Parallel reductions are fine outside the sim crates (core's
    // aggregates run after the simulation), and fire in every sim crate.
    assert_eq!(
        rules_fired("crates/core/src/fixture.rs", "unordered_float_reduction_positive.rs"),
        Vec::<&str>::new()
    );
    for sim in ["crates/pdes/src/fixture.rs", "crates/stream/src/fixture.rs"] {
        assert!(
            rules_fired(sim, "unordered_float_reduction_positive.rs")
                .contains(&"unordered_float_reduction"),
            "{sim}"
        );
    }
}

#[test]
fn positive_findings_carry_location_and_snippet() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/unordered_float_reduction_positive.rs");
    let text = std::fs::read_to_string(path).expect("fixture");
    let findings = lint_text(SIM_PATH, &text);
    let f = findings
        .iter()
        .find(|f| f.rule == "unordered_float_reduction")
        .expect("an unordered_float_reduction finding");
    assert_eq!(f.file, SIM_PATH);
    assert!(f.line > 1, "line should be 1-based and past the header comment");
    assert!(f.snippet.contains("par_iter"), "snippet carries the source line: {}", f.snippet);
}
