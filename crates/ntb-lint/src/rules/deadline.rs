//! Rule `deadline-clip`: blocking wait primitives inside op-completion
//! code must derive their timeout from a deadline-clipped expression.
//!
//! The defect class (fixed by hand in PRs 6 and 7): a wait uses a policy
//! constant (the retry timeout, a 50 ms poll tick) instead of clipping to the
//! op deadline, so a typed `DeadlineExceeded` degrades into `LinkFailed`
//! after the full retry ladder. The rule requires every call to a
//! [`manifest::WAIT_PRIMITIVES`] name to mention a deadline-derived
//! identifier ([`manifest::DEADLINE_IDENTS`] substrings) in its argument
//! list, or to carry `// DEADLINE-CLIPPED: why`.

use crate::lexer::TokKind;
use crate::rules::{has_justified_annotation, in_protocol_scope};
use crate::{manifest, FileCtx, FileMode, Finding, ScanStats};

pub(crate) fn run(
    ctx: &FileCtx<'_>,
    mode: FileMode,
    out: &mut Vec<Finding>,
    stats: &mut ScanStats,
) {
    if !in_protocol_scope(ctx.file, mode) {
        return;
    }
    let toks = &ctx.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !manifest::WAIT_PRIMITIVES.contains(&t.text.as_str()) {
            continue;
        }
        // A call site, not a definition (`fn wait_until(..)`) or a path
        // segment without arguments.
        if toks.get(i + 1).is_none_or(|u| u.text != "(") {
            continue;
        }
        if i > 0 && toks[i - 1].kind == TokKind::Ident && toks[i - 1].text == "fn" {
            continue;
        }
        if ctx.in_test(t.line) {
            continue;
        }
        stats.waits_checked += 1;
        // Argument span: `(` .. matching `)`.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut clipped = false;
        while j < toks.len() {
            let u = &toks[j];
            if u.kind == TokKind::Punct {
                match u.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            } else if u.kind == TokKind::Ident {
                let lower = u.text.to_ascii_lowercase();
                if manifest::DEADLINE_IDENTS.iter().any(|d| lower.contains(d)) {
                    clipped = true;
                }
            }
            j += 1;
        }
        if clipped || has_justified_annotation(ctx, t.line, "DEADLINE-CLIPPED:") {
            continue;
        }
        out.push(Finding {
            file: ctx.file.to_string(),
            line: t.line,
            rule: "deadline-clip",
            message: format!(
                "`{}(..)` with no deadline-derived timeout in its arguments; clip the wait \
                 to the op deadline (e.g. `deadline.saturating_duration_since(now)`), or \
                 justify with `// DEADLINE-CLIPPED: why`",
                t.text
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::{scan_source, FileMode, Finding};

    fn findings(src: &str) -> Vec<Finding> {
        scan_source("mem://deadline.rs", src, FileMode::Single)
    }

    #[test]
    fn unclipped_wait_is_flagged() {
        let out = findings("fn f() { cond.wait_timeout(&mut g, Duration::from_millis(50)); }");
        assert!(out.iter().any(|f| f.rule == "deadline-clip"), "{out:?}");
    }

    #[test]
    fn deadline_derived_argument_passes() {
        let ok = "fn f() { cond.wait_timeout(&mut g, deadline.saturating_duration_since(now)); }";
        assert!(findings(ok).iter().all(|f| f.rule != "deadline-clip"));
        let ok2 = "fn f() { thread::sleep(remaining.min(TICK)); }";
        assert!(findings(ok2).iter().all(|f| f.rule != "deadline-clip"));
    }

    #[test]
    fn annotation_waives_with_reason_only() {
        let ok = "fn f() {\n\
                  // DEADLINE-CLIPPED: poll quantum; the loop checks the op deadline.\n\
                  thread::sleep(TICK);\n\
                  }";
        assert!(findings(ok).iter().all(|f| f.rule != "deadline-clip"));
        // Empty reason is tampering.
        let bad = "fn f() {\n// DEADLINE-CLIPPED:\nthread::sleep(TICK);\n}";
        assert!(findings(bad).iter().any(|f| f.rule == "deadline-clip"));
    }

    #[test]
    fn definitions_are_not_call_sites() {
        let src = "fn wait_until(&self, id: u64) -> bool { true }";
        assert!(findings(src).iter().all(|f| f.rule != "deadline-clip"));
    }
}
