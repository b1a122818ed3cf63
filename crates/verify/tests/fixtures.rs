//! Fixture tests: each rule fires exactly once at the expected line on
//! a known-bad snippet, and a clean fixture stays silent. The fixtures
//! live under `tests/fixtures/` as plain text — they are never
//! compiled — and are linted under a fake `crates/core/src/` path so
//! every rule class (library, panic-free, docs-required) applies.

use minato_verify::{lint_source, LockOrder, Rule};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Lints a fixture as if it were a core library file and asserts it
/// yields exactly one violation of `rule` at `line`.
fn assert_fires_once(name: &str, rule: Rule, line: usize) {
    let text = fixture(name);
    let out = lint_source("crates/core/src/fixture.rs", &text, &LockOrder::default());
    assert!(
        out.bad_allow_comments.is_empty(),
        "{name}: malformed allows: {:?}",
        out.bad_allow_comments
    );
    let hits: Vec<_> = out.violations.iter().filter(|v| v.rule == rule).collect();
    assert_eq!(
        hits.len(),
        1,
        "{name}: expected exactly one {rule} violation, got {:?}",
        out.violations
    );
    assert_eq!(
        hits[0].line, line,
        "{name}: {rule} fired at line {} instead of {line}",
        hits[0].line
    );
    assert_eq!(
        out.violations.len(),
        1,
        "{name}: unexpected extra violations: {:?}",
        out.violations
    );
}

#[test]
fn v1_unwrap_in_library_code() {
    assert_fires_once("v1_bad.rs", Rule::V1, 2);
}

#[test]
fn v2_allocation_in_hot_path() {
    assert_fires_once("v2_bad.rs", Rule::V2, 3);
}

#[test]
fn v3_blocking_call_under_lock() {
    assert_fires_once("v3_bad.rs", Rule::V3, 3);
}

#[test]
fn v4_undocumented_public_item() {
    assert_fires_once("v4_bad.rs", Rule::V4, 1);
}

#[test]
fn v5_unsafe_without_safety_comment() {
    assert_fires_once("v5_bad.rs", Rule::V5, 2);
}

#[test]
fn clean_fixture_is_silent() {
    let text = fixture("clean.rs");
    let out = lint_source("crates/core/src/fixture.rs", &text, &LockOrder::default());
    assert!(
        out.violations.is_empty(),
        "clean fixture must lint clean: {:?}",
        out.violations
    );
    assert!(out.bad_allow_comments.is_empty());
}

/// The bench crate is exempt from V1 (measurement harness) but not
/// from the other rules.
#[test]
fn bench_paths_skip_v1_only() {
    let text = fixture("v1_bad.rs");
    let out = lint_source("crates/bench/src/fixture.rs", &text, &LockOrder::default());
    assert!(
        out.violations.is_empty(),
        "bench code may unwrap: {:?}",
        out.violations
    );
    let text = fixture("v5_bad.rs");
    let out = lint_source("crates/bench/src/fixture.rs", &text, &LockOrder::default());
    assert_eq!(out.violations.len(), 1, "V5 still applies to bench code");
    assert_eq!(out.violations[0].rule, Rule::V5);
}
