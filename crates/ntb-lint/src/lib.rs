//! `ntb-lint` — workspace-native static analysis for the NTB/OpenSHMEM
//! workspace.
//!
//! Ten rules, all keyed to the paper's ordered shared-state protocol
//! (ScratchPad publish → doorbell → service-thread consume). Five are
//! token-level hygiene rules, five are function-granular protocol-
//! discipline rules built on the [`parse`] module:
//!
//! 1. **safety** — every `unsafe` block / fn / impl carries a
//!    `// SAFETY:` comment explaining the invariant.
//! 2. **atomics** — atomic `Ordering`s are allowlisted per site
//!    (`SeqCst`/`Acquire`/`Release`/`AcqRel`); `Relaxed` requires a
//!    `// lint: relaxed-ok(reason)` annotation, and `use ...::Ordering::Relaxed`
//!    imports are forbidden outright (they hide the ordering at use sites).
//! 3. **unwraps** — no `.unwrap()` / `.expect()` in non-test
//!    `ntb-net` / `shmem-core` code unless annotated
//!    `// lint: unwrap-ok(reason)`.
//! 4. **locks** — every lock acquisition is classified in the
//!    [`manifest::LOCK_SITES`] table, nested acquisitions respect the
//!    declared rank order (or carry `// lint: lock-order-ok(reason)`),
//!    and the runtime lockdep class table stays in sync with the manifest
//!    (**lockdep-sync**).
//! 5. **resolution** — a function that acquires protocol state (emits a
//!    registered lifecycle event from [`manifest::EVENT_PAIRS`], or
//!    inserts into a pending table per [`manifest::CALL_PAIRS`]) must
//!    reach a paired resolution on every control-flow exit, or carry
//!    `// RESOLVES(<event>): why`.
//!    **emit-before-publish** (same family) — a resolution another
//!    thread waits on ([`manifest::PUBLISHED_RESOLUTIONS`]) is emitted
//!    inside the observer closure of the call that publishes it, or the
//!    site carries `// NO-WAITER: why`.
//! 6. **deadline-clip** — blocking wait primitives must derive their
//!    timeout from a deadline-clipped expression, or carry
//!    `// DEADLINE-CLIPPED: why`.
//! 7. **bounded-wait** — no `loop`/`while` containing a wait/spin without
//!    a deadline check, retry-budget decrement or shutdown flag, or a
//!    `// BOUNDED-BY: why` justification.
//! 8. **typed-error** — constructing a failure variant of the typed error
//!    ladder (`NtbError`/`ShmemError`) must co-occur with pending-entry
//!    resolution in the same function, or carry a `// RESOLVES(..): why`
//!    annotation.
//! 9. **counter-via-emit** — the event counters (`LinkMetrics` fields,
//!    [`manifest::COUNTER_FIELDS`]) are written only in
//!    [`manifest::COUNTER_HOME`], by `Obs::emit`; no annotation waives a
//!    direct `fetch_add`/`store` elsewhere.
//!
//! All rules skip `#[test]` / `#[cfg(test)]` regions. The pass is
//! deliberately dependency-free (hand-rolled lexer, no `syn`): the
//! workspace is vendored-offline and the lint must run anywhere the
//! workspace builds.

pub mod lexer;
pub mod manifest;
pub mod parse;
mod rules;

use lexer::{lex, Comment, Tok, TokKind};
use parse::FnInfo;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// File the finding is in (as passed to the scanner).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id: `safety`, `atomics`, `unwraps`, `locks`, `lockdep-sync`,
    /// `resolution`, `emit-before-publish`, `deadline-clip`,
    /// `bounded-wait`, `typed-error`, `counter-via-emit`.
    pub rule: &'static str,
    /// Human-readable description with the expected annotation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// How path-scoped rules treat the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileMode {
    /// Normal workspace scan: path-scoped rules apply only to their
    /// declared crates (unwraps/resolution/deadline-clip/typed-error to
    /// `ntb-net/src` + `shmem-core/src`, bounded-wait additionally to
    /// `ntb-sim/src`).
    Workspace,
    /// Fixture / single-file mode: every rule applies unconditionally.
    Single,
}

/// Evidence counters from a scan, so a parser regression that silently
/// analyzes nothing fails loudly in the self-scan test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Files scanned.
    pub files: usize,
    /// Functions parsed out of the token streams.
    pub functions: usize,
    /// Acquire sites checked by the resolution rule (events + table inserts).
    pub acquires: usize,
    /// (acquire, exit) pairs checked by the resolution rule.
    pub exits_checked: usize,
    /// Published-resolution emits checked by the emit-before-publish rule.
    pub publish_emits: usize,
    /// Timed-wait call sites checked by the deadline-clip rule.
    pub waits_checked: usize,
    /// Waiting loops checked by the bounded-wait rule.
    pub loops_checked: usize,
    /// Failure-variant constructions checked by the typed-error rule.
    pub errors_checked: usize,
    /// Event-counter field accesses checked by the counter-via-emit rule.
    pub counter_sites: usize,
}

impl ScanStats {
    /// Add another scan's counters to these.
    pub fn absorb(&mut self, other: ScanStats) {
        self.files += other.files;
        self.functions += other.functions;
        self.acquires += other.acquires;
        self.exits_checked += other.exits_checked;
        self.publish_emits += other.publish_emits;
        self.waits_checked += other.waits_checked;
        self.loops_checked += other.loops_checked;
        self.errors_checked += other.errors_checked;
        self.counter_sites += other.counter_sites;
    }
}

impl std::fmt::Display for ScanStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} files, {} functions; {} acquires / {} exits paired, {} resolution emits \
             publish-checked, {} waits deadline-checked, {} loops bound-checked, \
             {} error constructions checked, {} counter accesses checked",
            self.files,
            self.functions,
            self.acquires,
            self.exits_checked,
            self.publish_emits,
            self.waits_checked,
            self.loops_checked,
            self.errors_checked,
            self.counter_sites
        )
    }
}

/// Pre-lexed view of one source file shared by all rules.
pub(crate) struct FileCtx<'a> {
    pub(crate) file: &'a str,
    pub(crate) toks: Vec<Tok>,
    /// Lines that contain at least one code token.
    pub(crate) code_lines: HashSet<u32>,
    /// Comment text per start line (multiple comments concatenated).
    pub(crate) comments: HashMap<u32, String>,
    /// Inclusive line ranges covered by `#[test]` / `#[cfg(test)]` items.
    pub(crate) test_ranges: Vec<(u32, u32)>,
    /// Parsed functions (protocol-discipline rules).
    pub(crate) fns: Vec<FnInfo>,
}

impl<'a> FileCtx<'a> {
    pub(crate) fn new(file: &'a str, src: &str) -> Self {
        let (toks, raw_comments) = lex(src);
        let mut comments: HashMap<u32, String> = HashMap::new();
        for Comment { line, text } in raw_comments {
            comments.entry(line).or_default().push_str(&text);
        }
        let code_lines = toks.iter().map(|t| t.line).collect();
        let test_ranges = find_test_ranges(&toks);
        let fns = parse::parse_functions(&toks);
        FileCtx { file, toks, code_lines, comments, test_ranges, fns }
    }

    pub(crate) fn in_test(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(a, b)| (a..=b).contains(&line))
    }

    /// True when `pred` matches a comment on the token's line, on a
    /// contiguous run of comment/blank lines directly above it, or (for
    /// block-opening constructs) on the line just below.
    pub(crate) fn annotated_by(&self, line: u32, pred: impl Fn(&str) -> bool) -> bool {
        if self.comments.get(&line).is_some_and(|c| pred(c)) {
            return true;
        }
        // Walk up through comments and blank lines; stop at code.
        let mut l = line;
        while l > 1 {
            l -= 1;
            if let Some(c) = self.comments.get(&l) {
                if pred(c) {
                    return true;
                }
                continue;
            }
            if self.code_lines.contains(&l) {
                break;
            }
            // blank line: keep walking
        }
        // First line inside an opened block (e.g. `unsafe {` + SAFETY below).
        self.comments.get(&(line + 1)).is_some_and(|c| pred(c))
    }

    pub(crate) fn annotated(&self, line: u32, needle: &str) -> bool {
        self.annotated_by(line, |c| c.contains(needle))
    }

    /// Innermost parsed function whose body contains token index `i`.
    pub(crate) fn enclosing_fn(&self, i: usize) -> Option<&FnInfo> {
        self.fns.iter().filter(|f| f.contains(i)).max_by_key(|f| f.body_open)
    }
}

/// Token ranges covered by test-only items, as inclusive line spans.
///
/// An item is test-only when introduced by `#[test]`, `#[cfg(test)]`, or a
/// `#[...::test]`-style attribute; the span runs to the end of the item's
/// brace block (or its terminating `;`).
fn find_test_ranges(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Punct && toks[i].text == "#") {
            i += 1;
            continue;
        }
        // Parse one attribute: # [ ... ].
        let Some((attr_toks, after)) = parse_attr(toks, i) else {
            i += 1;
            continue;
        };
        if !attr_is_test(&attr_toks) {
            i = after;
            continue;
        }
        let start_line = toks[i].line;
        // Skip any further attributes on the same item.
        let mut j = after;
        while j < toks.len() && toks[j].kind == TokKind::Punct && toks[j].text == "#" {
            match parse_attr(toks, j) {
                Some((_, nj)) => j = nj,
                None => break,
            }
        }
        // Find the item's end: first `;` at depth 0, or the `}` matching
        // the first `{`.
        let mut depth = 0i32;
        let mut end_line = toks.get(j).map_or(start_line, |t| t.line);
        while j < toks.len() {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            end_line = t.line;
                            j += 1;
                            break;
                        }
                    }
                    ";" if depth == 0 => {
                        end_line = t.line;
                        j += 1;
                        break;
                    }
                    _ => {}
                }
            }
            end_line = t.line;
            j += 1;
        }
        ranges.push((start_line, end_line));
        i = j;
    }
    ranges
}

/// Parse `# [ ... ]` starting at index `i` (which must be `#`); returns the
/// attribute's inner tokens and the index just past the closing `]`.
fn parse_attr(toks: &[Tok], i: usize) -> Option<(Vec<String>, usize)> {
    let mut j = i + 1;
    // Tolerate inner attributes `#![...]`.
    if toks.get(j).is_some_and(|t| t.text == "!") {
        j += 1;
    }
    if toks.get(j).is_none_or(|t| t.text != "[") {
        return None;
    }
    j += 1;
    let mut depth = 1i32;
    let mut inner = Vec::new();
    while j < toks.len() {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            if t.text == "[" {
                depth += 1;
            } else if t.text == "]" {
                depth -= 1;
                if depth == 0 {
                    return Some((inner, j + 1));
                }
            }
        }
        inner.push(t.text.clone());
        j += 1;
    }
    None
}

/// Is this attribute a test marker? Catches `test`, `cfg(test)`,
/// `path::test` — but not `cfg(not(test))`.
fn attr_is_test(attr: &[String]) -> bool {
    if attr.iter().any(|t| t == "not") {
        return false;
    }
    match attr.iter().position(|t| t == "test") {
        None => false,
        Some(0) => true,
        Some(p) => {
            // `cfg ( test ...` or `tokio :: test`.
            matches!(attr[p - 1].as_str(), "(" | "," | ":")
        }
    }
}

/// Drop lower-precedence findings when several rules fire on the same
/// (file, line): if a line both leaks a pending entry and calls
/// `.unwrap()`, the leak is the story (see [`manifest::RULE_PRECEDENCE`]).
pub fn dedupe(findings: Vec<Finding>) -> Vec<Finding> {
    let mut best: HashMap<(String, u32), usize> = HashMap::new();
    for f in &findings {
        let p = manifest::rule_precedence(f.rule);
        best.entry((f.file.clone(), f.line)).and_modify(|b| *b = (*b).min(p)).or_insert(p);
    }
    findings
        .into_iter()
        .filter(|f| {
            best.get(&(f.file.clone(), f.line))
                .is_none_or(|&b| manifest::rule_precedence(f.rule) == b)
        })
        .collect()
}

/// Lint one source string, returning findings plus evidence counters.
pub fn scan_source_with_stats(file: &str, src: &str, mode: FileMode) -> (Vec<Finding>, ScanStats) {
    let ctx = FileCtx::new(file, src);
    let mut out = Vec::new();
    let mut stats = ScanStats { files: 1, functions: ctx.fns.len(), ..Default::default() };
    rules::safety::run(&ctx, &mut out);
    rules::atomics::run(&ctx, &mut out);
    rules::unwraps::run(&ctx, mode, &mut out);
    rules::locks::run(&ctx, &mut out);
    rules::counters::run(&ctx, &mut out, &mut stats);
    rules::resolution::run(&ctx, mode, &mut out, &mut stats);
    rules::publish::run(&ctx, mode, &mut out, &mut stats);
    rules::deadline::run(&ctx, mode, &mut out, &mut stats);
    rules::bounded::run(&ctx, mode, &mut out, &mut stats);
    rules::typederr::run(&ctx, mode, &mut out, &mut stats);
    let mut out = dedupe(out);
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (out, stats)
}

/// Lint one source string.
pub fn scan_source(file: &str, src: &str, mode: FileMode) -> Vec<Finding> {
    scan_source_with_stats(file, src, mode).0
}

/// Lint one file on disk.
pub fn scan_file(path: &Path, mode: FileMode) -> std::io::Result<Vec<Finding>> {
    let src = std::fs::read_to_string(path)?;
    Ok(scan_source(&path.display().to_string(), &src, mode))
}

/// Collect the workspace's lintable `.rs` files: `crates/*/src/**`,
/// skipping `vendor/` (third-party shims), `target/`, test/bench trees and
/// the lint's own fixtures.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for c in crate_dirs {
        let src = c.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let p = entry.path();
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if matches!(name, "target" | "fixtures" | "tests" | "benches") {
                continue;
            }
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Lint the whole workspace rooted at `root`, with evidence counters.
pub fn scan_workspace_with_stats(root: &Path) -> std::io::Result<(Vec<Finding>, ScanStats)> {
    let mut out = Vec::new();
    let mut stats = ScanStats::default();
    for f in workspace_files(root)? {
        let src = std::fs::read_to_string(&f)?;
        let (fnd, s) = scan_source_with_stats(&f.display().to_string(), &src, FileMode::Workspace);
        out.extend(fnd);
        stats.absorb(s);
    }
    Ok((out, stats))
}

/// Lint the whole workspace rooted at `root`.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(scan_workspace_with_stats(root)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        scan_source("mem://ntb-net/src/x.rs", src, FileMode::Single)
    }

    #[test]
    fn safety_rule_basics() {
        let bad = "fn f() { unsafe { core::ptr::read(p) } }";
        assert!(findings(bad).iter().any(|f| f.rule == "safety"));
        let good = "fn f() {\n    // SAFETY: p is valid for reads, checked above.\n    unsafe { core::ptr::read(p) }\n}";
        assert!(findings(good).iter().all(|f| f.rule != "safety"));
    }

    #[test]
    fn safety_in_tests_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { unsafe { x() } }\n}";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn atomics_rule_basics() {
        assert!(findings("x.load(Ordering::Relaxed);").iter().any(|f| f.rule == "atomics"));
        assert!(findings("x.load(Ordering::SeqCst);").is_empty());
        let annotated =
            "// lint: relaxed-ok(monotonic counter, read only for stats)\nx.load(Ordering::Relaxed);";
        assert!(findings(annotated).is_empty());
        assert!(findings("use std::sync::atomic::Ordering::Relaxed;")
            .iter()
            .any(|f| f.rule == "atomics"));
        assert!(findings("use std::sync::atomic::Ordering;").is_empty());
    }

    #[test]
    fn unwrap_rule_scoping() {
        let src = "fn f() { x.unwrap(); }";
        assert!(findings(src).iter().any(|f| f.rule == "unwraps"));
        // Out-of-scope path in workspace mode.
        let out = scan_source("crates/shmem-bench/src/x.rs", src, FileMode::Workspace);
        assert!(out.iter().all(|f| f.rule != "unwraps"));
        // unwrap_or_default is a different method.
        assert!(findings("fn f() { x.unwrap_or_default(); }").is_empty());
    }

    #[test]
    fn lock_rule_classification_and_order() {
        // Unclassified receiver.
        let src = "fn f() { self.mystery.lock(); }";
        assert!(findings(src).iter().any(|f| f.rule == "locks"));
        // Correct order low -> high via the fixture classes.
        let ok = "fn f() { let a = low.lock(); let b = high.lock(); }";
        let out = scan_source("fixtures/locks_pass.rs", ok, FileMode::Single);
        assert!(out.is_empty(), "{out:?}");
        // Inverted order high -> low.
        let bad = "fn f() { let a = high.lock(); let b = low.lock(); }";
        let out = scan_source("fixtures/locks_fail_order.rs", bad, FileMode::Single);
        assert!(
            out.iter().any(|f| f.rule == "locks" && f.message.contains("violation")),
            "{out:?}"
        );
    }

    #[test]
    fn lock_rule_temporary_guard_released_at_statement_end() {
        // Temporaries do not pin the hierarchy across statements.
        let src = "fn f() { high.lock().push(1); low.lock().push(2); }";
        let out = scan_source("fixtures/locks_pass.rs", src, FileMode::Single);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn lock_rule_block_scope_release() {
        let src = "fn f() { { let g = high.lock(); } let g2 = low.lock(); }";
        let out = scan_source("fixtures/locks_pass.rs", src, FileMode::Single);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn lock_rule_let_chain_consumes_guard_but_if_let_pins_it() {
        // `let v = guard-chain;` drops the temporary guard at the `;`.
        let ok = "fn f() { let v = high.lock().get(k); low.lock().push(v); }";
        let out = scan_source("fixtures/locks_pass.rs", ok, FileMode::Single);
        assert!(out.is_empty(), "{out:?}");
        // An `if let` scrutinee pins the guard for the whole construct
        // (Rust 2021 temporary-scope rules).
        let bad = "fn f() { if let Some(v) = high.lock().get(k) { low.lock().push(v); } }";
        let out = scan_source("fixtures/locks_fail_order.rs", bad, FileMode::Single);
        assert!(
            out.iter().any(|f| f.rule == "locks" && f.message.contains("violation")),
            "{out:?}"
        );
        // But binding the guard itself stays block-scoped.
        let bad2 = "fn f() { let g = high.lock(); low.lock().push(1); }";
        let out = scan_source("fixtures/locks_fail_order.rs", bad2, FileMode::Single);
        assert!(
            out.iter().any(|f| f.rule == "locks" && f.message.contains("violation")),
            "{out:?}"
        );
    }

    #[test]
    fn annotation_same_line_and_preceding() {
        let same = "x.load(Ordering::Relaxed); // lint: relaxed-ok(counter)";
        assert!(findings(same).is_empty());
        let preceding = "// lint: relaxed-ok(counter)\n// more words\nx.load(Ordering::Relaxed);";
        assert!(findings(preceding).is_empty());
        let blocked = "// lint: relaxed-ok(counter)\nlet y = 1;\nx.load(Ordering::Relaxed);";
        assert!(findings(blocked).iter().any(|f| f.rule == "atomics"));
    }

    #[test]
    fn dedupe_keeps_highest_precedence_rule_per_line() {
        // A failure-variant construction with an `.unwrap()` on the same
        // line: typed-error outranks unwraps, so only typed-error stays.
        let src = "fn f() -> NtbError { NtbError::LinkFailed { attempts: x.unwrap() } }";
        let out = findings(src);
        assert!(out.iter().any(|f| f.rule == "typed-error"), "{out:?}");
        assert!(out.iter().all(|f| f.rule != "unwraps"), "{out:?}");
    }

    #[test]
    fn stats_count_functions() {
        let (_, stats) =
            scan_source_with_stats("mem://x.rs", "fn a() {}\nfn b() {}", FileMode::Single);
        assert_eq!(stats.functions, 2);
        assert_eq!(stats.files, 1);
    }
}
