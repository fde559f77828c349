//! Fixture conformance: every rule has at least one fixture that must
//! scan clean and one that must produce findings of exactly that rule —
//! guarding both false positives and false negatives. The final test
//! scans the real workspace, pinning the tree itself at zero findings.

use std::path::{Path, PathBuf};

use ntb_lint::{scan_file, scan_workspace_with_stats, FileMode, Finding};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn scan(name: &str) -> Vec<Finding> {
    scan_file(&fixture(name), FileMode::Single).expect("fixture readable")
}

fn assert_clean(name: &str) {
    let got = scan(name);
    assert!(got.is_empty(), "{name} must scan clean, got: {got:#?}");
}

fn assert_flags(name: &str, rule: &str, at_least: usize) {
    let got = scan(name);
    let hits = got.iter().filter(|f| f.rule == rule).count();
    assert!(
        hits >= at_least,
        "{name} must produce >= {at_least} `{rule}` finding(s), got: {got:#?}"
    );
    let other: Vec<_> = got.iter().filter(|f| f.rule != rule).collect();
    assert!(other.is_empty(), "{name} must only trip `{rule}`, also got: {other:#?}");
}

#[test]
fn safety_fixtures() {
    assert_clean("safety_pass.rs");
    assert_flags("safety_fail.rs", "safety", 1);
}

#[test]
fn atomics_fixtures() {
    assert_clean("atomics_pass.rs");
    assert_flags("atomics_fail.rs", "atomics", 1);
    // Importing `Ordering::Relaxed` hides the ordering at use sites; the
    // import line itself is the finding.
    assert_flags("atomics_fail_import.rs", "atomics", 1);
}

#[test]
fn unwraps_fixtures() {
    assert_clean("unwraps_pass.rs");
    assert_flags("unwraps_fail.rs", "unwraps", 2);
}

#[test]
fn locks_fixtures() {
    assert_clean("locks_pass.rs");
    assert_flags("locks_fail_order.rs", "locks", 1);
    assert_flags("locks_fail_unclassified.rs", "locks", 1);
    let msg = &scan("locks_fail_order.rs")[0].message;
    assert!(
        msg.contains("rank 10") && msg.contains("rank 120"),
        "order finding names both ranks: {msg}"
    );
}

#[test]
fn resolution_fixtures() {
    assert_clean("resolution_pass.rs");
    assert_flags("resolution_fail.rs", "resolution", 1);
    assert_clean("resolution_annotated.rs");
    // A mismatched event name in the annotation must not waive the site.
    assert_flags("resolution_tampered.rs", "resolution", 1);
    let msg = &scan("resolution_fail.rs")[0].message;
    assert!(
        msg.contains("leaky_get") && msg.contains("RESOLVES("),
        "finding names the function and the annotation escape hatch: {msg}"
    );
}

#[test]
fn publish_fixtures() {
    assert_clean("publish_pass.rs");
    assert_flags("publish_fail.rs", "emit-before-publish", 2);
    assert_clean("publish_annotated.rs");
    // A bare marker with no reason is tampering, not a waiver.
    assert_flags("publish_tampered.rs", "emit-before-publish", 1);
}

#[test]
fn deadline_fixtures() {
    assert_clean("deadline_pass.rs");
    assert_flags("deadline_fail.rs", "deadline-clip", 2);
    assert_clean("deadline_annotated.rs");
    // A bare marker with no justification is tampering, not a waiver.
    assert_flags("deadline_tampered.rs", "deadline-clip", 1);
}

#[test]
fn bounded_fixtures() {
    assert_clean("bounded_pass.rs");
    assert_flags("bounded_fail.rs", "bounded-wait", 1);
    assert_clean("bounded_annotated.rs");
    assert_flags("bounded_tampered.rs", "bounded-wait", 1);
}

#[test]
fn typederr_fixtures() {
    assert_clean("typederr_pass.rs");
    assert_flags("typederr_fail.rs", "typed-error", 1);
    assert_clean("typederr_annotated.rs");
    // A sub-minimal reason ("ok") is tampering, not a waiver.
    assert_flags("typederr_tampered.rs", "typed-error", 1);
}

#[test]
fn counters_fixtures() {
    assert_clean("counters_pass.rs");
    assert_flags("counters_fail.rs", "counter-via-emit", 2);
}

/// The rule's field list names exactly the fields `LinkMetrics` declares,
/// in order, so a counter added to the struct cannot escape the rule.
#[test]
fn counter_fields_match_link_metrics() {
    let obs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../ntb-sim/src/obs.rs");
    let src = std::fs::read_to_string(obs).expect("obs.rs readable");
    let start = src.find("link_metrics!(").expect("LinkMetrics declaration");
    let body = &src[start..start + src[start..].find("\n);").expect("end of declaration")];
    let declared: Vec<&str> = body
        .lines()
        .map(str::trim)
        .filter(|l| !l.starts_with("//") && l.ends_with(','))
        .map(|l| l.trim_end_matches(','))
        .collect();
    assert_eq!(declared, ntb_lint::manifest::COUNTER_FIELDS);
}

/// The linter's reason to exist: the workspace it ships in stays clean —
/// and demonstrably *looked at* the protocol surface while doing so.
/// Walks the real crate tree (two levels up from this crate's manifest)
/// and pins non-trivial floors on every evidence counter, so a refactor
/// that silently stops the parser from finding functions (or a rule from
/// visiting its sites) fails here rather than passing vacuously.
#[test]
fn workspace_self_scan_is_clean_with_evidence() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolvable");
    let (findings, stats) = scan_workspace_with_stats(&root).expect("workspace scannable");
    assert!(findings.is_empty(), "workspace must lint clean, got: {findings:#?}");
    assert!(stats.files >= 50, "suspiciously few files scanned: {stats}");
    assert!(stats.functions >= 900, "suspiciously few functions parsed: {stats}");
    assert!(stats.acquires >= 5, "resolution rule found too few acquires: {stats}");
    assert!(stats.exits_checked >= 10, "resolution rule checked too few exits: {stats}");
    assert!(stats.publish_emits >= 6, "publish rule checked too few emits: {stats}");
    assert!(stats.waits_checked >= 12, "deadline rule checked too few waits: {stats}");
    assert!(stats.loops_checked >= 15, "bounded rule checked too few loops: {stats}");
    assert!(stats.errors_checked >= 15, "typed-error rule checked too few sites: {stats}");
    assert!(stats.counter_sites >= 10, "counter rule checked too few accesses: {stats}");
}
