//! CLI for the workspace static-analysis pass.
//!
//! ```text
//! cargo run -p ntb-lint                  # lint the workspace (crates/*/src)
//! cargo run -p ntb-lint -- --file F.rs   # lint one file, all rules apply
//! cargo run -p ntb-lint -- --rule ID     # only report findings from rule ID
//! cargo run -p ntb-lint -- --json        # machine-readable findings + stats
//! cargo run -p ntb-lint -- --print-order # show the declared lock hierarchy
//! cargo run -p ntb-lint -- --root DIR    # lint a workspace rooted elsewhere
//! ```
//!
//! Exit codes: 0 clean, 1 findings reported, 2 usage or I/O error.

use ntb_lint::{
    manifest, scan_source_with_stats, scan_workspace_with_stats, FileMode, Finding, ScanStats,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<PathBuf> = Vec::new();
    let mut root: Option<PathBuf> = None;
    let mut rules: Vec<String> = Vec::new();
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--file" => {
                i += 1;
                match args.get(i) {
                    Some(f) => files.push(PathBuf::from(f)),
                    None => return usage("--file requires a path"),
                }
            }
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(r) => root = Some(PathBuf::from(r)),
                    None => return usage("--root requires a directory"),
                }
            }
            "--rule" => {
                i += 1;
                match args.get(i) {
                    Some(r) if manifest::RULE_PRECEDENCE.contains(&r.as_str()) => {
                        rules.push(r.clone())
                    }
                    Some(r) => {
                        return usage(&format!(
                            "unknown rule `{r}`; known rules: {}",
                            manifest::RULE_PRECEDENCE.join(", ")
                        ))
                    }
                    None => return usage("--rule requires a rule id"),
                }
            }
            "--json" => json = true,
            "--print-order" => {
                print_order();
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }

    let result: std::io::Result<(Vec<Finding>, ScanStats)> = if files.is_empty() {
        let root = root.unwrap_or_else(find_workspace_root);
        scan_workspace_with_stats(&root)
    } else {
        let mut out = Vec::new();
        let mut stats = ScanStats::default();
        let mut err = None;
        for f in &files {
            match std::fs::read_to_string(f) {
                Ok(src) => {
                    let (fnd, s) =
                        scan_source_with_stats(&f.display().to_string(), &src, FileMode::Single);
                    out.extend(fnd);
                    stats.absorb(s);
                }
                Err(e) => {
                    eprintln!("ntb-lint: cannot read {}: {e}", f.display());
                    err = Some(e);
                    break;
                }
            }
        }
        match err {
            Some(_) => return ExitCode::from(2),
            None => Ok((out, stats)),
        }
    };

    match result {
        Ok((mut findings, stats)) => {
            if !rules.is_empty() {
                findings.retain(|f| rules.iter().any(|r| r == f.rule));
            }
            if json {
                println!("{}", render_json(&findings, &stats));
            } else if findings.is_empty() {
                println!("ntb-lint: clean ({stats})");
            } else {
                for f in &findings {
                    println!("{f}");
                }
                println!("ntb-lint: {} finding(s) ({stats})", findings.len());
            }
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("ntb-lint: scan failed: {e}");
            ExitCode::from(2)
        }
    }
}

/// Hand-rolled JSON (the lint is deliberately dependency-free).
fn render_json(findings: &[Finding], stats: &ScanStats) -> String {
    let mut s = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&f.file),
            f.line,
            f.rule,
            json_escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n");
    s.push_str(&format!(
        "  \"stats\": {{\"files\": {}, \"functions\": {}, \"acquires\": {}, \
         \"exits_checked\": {}, \"publish_emits\": {}, \"waits_checked\": {}, \
         \"loops_checked\": {}, \"errors_checked\": {}, \"counter_sites\": {}}},\n",
        stats.files,
        stats.functions,
        stats.acquires,
        stats.exits_checked,
        stats.publish_emits,
        stats.waits_checked,
        stats.loops_checked,
        stats.errors_checked,
        stats.counter_sites
    ));
    s.push_str(&format!("  \"clean\": {}\n}}", findings.is_empty()));
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Walk up from the current directory (or this crate's manifest dir) to the
/// directory containing `crates/`.
fn find_workspace_root() -> PathBuf {
    let start = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    for dir in start.ancestors() {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return dir.to_path_buf();
        }
    }
    // Fall back to the location baked in at compile time (../.. from this
    // crate), so `cargo run -p ntb-lint` works from anywhere.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap_or(start)
}

fn print_order() {
    println!("Declared lock hierarchy (acquire top-to-bottom; ranks strictly increase):\n");
    for c in manifest::LOCK_ORDER {
        println!("  {:>4}  {:<18} {}", c.rank, c.name, c.rationale);
    }
    println!("\nClassified sites: {}", manifest::LOCK_SITES.len());
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("ntb-lint: {err}");
    }
    eprintln!(
        "usage: ntb-lint [--root DIR] [--file FILE.rs]... [--rule ID]... [--json] [--print-order]\n\
         \n\
         With no arguments, lints every workspace source file (crates/*/src).\n\
         --file applies every rule to the named file (fixture mode).\n\
         --rule limits output to the named rule id (repeatable); known ids:\n\
         \x20    {}\n\
         --json prints findings and evidence counters as machine-readable JSON\n\
         (the CI lint job uploads this as an artifact on failure).\n\
         \n\
         exit codes: 0 = clean, 1 = findings reported, 2 = usage or I/O error",
        manifest::RULE_PRECEDENCE.join(", ")
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
