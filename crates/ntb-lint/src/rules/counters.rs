//! Rule `counter-via-emit`: the event counters (the `LinkMetrics` fields
//! listed in [`manifest::COUNTER_FIELDS`]) are written only in
//! [`manifest::COUNTER_HOME`], where `Obs::emit` bumps the counter its
//! event kind maps to. The fields stay public so readers can load them;
//! this rule is what keeps every count paired with its trace event. A
//! direct write anywhere else counts something the trace never sees, so
//! there is no annotation that waives it.

use crate::lexer::TokKind;
use crate::manifest::{self, COUNTER_FIELDS, COUNTER_HOME};
use crate::{FileCtx, Finding, ScanStats};

pub(crate) fn run(ctx: &FileCtx<'_>, out: &mut Vec<Finding>, stats: &mut ScanStats) {
    if ctx.file.replace('\\', "/").ends_with(COUNTER_HOME) {
        return;
    }
    let toks = &ctx.toks;
    for i in 1..toks.len() {
        // `. <counter field>`, optionally followed by `. <method>`.
        let field = &toks[i];
        if field.kind != TokKind::Ident
            || toks[i - 1].text != "."
            || !COUNTER_FIELDS.contains(&field.text.as_str())
            || ctx.in_test(field.line)
        {
            continue;
        }
        stats.counter_sites += 1;
        let method = match (toks.get(i + 1), toks.get(i + 2)) {
            (Some(dot), Some(m)) if dot.text == "." && m.kind == TokKind::Ident => &m.text,
            _ => continue,
        };
        if manifest::ATOMIC_WRITES.contains(&method.as_str()) {
            out.push(Finding {
                file: ctx.file.to_string(),
                line: field.line,
                rule: "counter-via-emit",
                message: format!(
                    "`.{}.{method}` writes an event counter outside {COUNTER_HOME}; emit the \
                     event through `Obs::emit`, which counts it",
                    field.text
                ),
            });
        }
    }
}
