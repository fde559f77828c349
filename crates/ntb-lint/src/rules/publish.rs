//! Rule `emit-before-publish` (resolution family): a resolution that
//! another thread waits on is logged before that thread can see it.
//!
//! Some resolutions are *published*: a table call makes them visible to
//! a blocked requester (`quiet` on the unacked table, a get or AMO wait
//! on the pending table), and the woken requester may return, or its
//! caller drain the trace, at once. If the resolution event is emitted
//! after the publishing call returns, a trace snapshot taken in between
//! shows the completed operation without its resolution. Get chunks,
//! put acks and AMO responses each had this race, and each was fixed the
//! same way: emit inside the observer closure the publishing call runs
//! under its table lock.
//!
//! So every `obs.emit(EventKind::<E>, ..)` of an event listed in
//! [`manifest::PUBLISHED_RESOLUTIONS`] must sit inside the argument list
//! of a call to one of that event's publishers (`fill_with`, `ack_with`,
//! `fail`, ...). An emit anywhere else is a finding, unless no other
//! thread waits on the entry (a synchronous fast path), which the site
//! states with `// NO-WAITER: why`.

use crate::lexer::{Tok, TokKind};
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
        let Some((event, publishers)) = published_emit(toks, i) else {
            continue;
        };
        let line = toks[i].line;
        if ctx.in_test(line) {
            continue;
        }
        stats.publish_emits += 1;
        let body_open = ctx.enclosing_fn(i).map_or(0, |f| f.body_open);
        if inside_call_to(toks, body_open, i, publishers)
            || has_justified_annotation(ctx, line, "NO-WAITER:")
        {
            continue;
        }
        out.push(Finding {
            file: ctx.file.to_string(),
            line,
            rule: "emit-before-publish",
            message: format!(
                "`{event}` is emitted outside the publishing call, so a waiter can see the \
                 resolution before it is logged; emit it inside the observer closure of one \
                 of [{}], or annotate `// NO-WAITER: why` if no other thread waits on it",
                publishers.join(", ")
            ),
        });
    }
}

/// `emit ( EventKind :: <E>` at token `i` (the `EventKind`) for a
/// published resolution `E`: its name and publishers.
fn published_emit(toks: &[Tok], i: usize) -> Option<(&'static str, &'static [&'static str])> {
    let t = &toks[i];
    if t.kind != TokKind::Ident
        || t.text != "EventKind"
        || i < 2
        || toks[i - 2].text != "emit"
        || toks[i - 1].text != "("
        || toks.get(i + 1).is_none_or(|u| u.text != ":")
        || toks.get(i + 2).is_none_or(|u| u.text != ":")
    {
        return None;
    }
    let v = toks.get(i + 3)?;
    manifest::PUBLISHED_RESOLUTIONS
        .iter()
        .find(|p| p.event == v.text)
        .map(|p| (p.event, p.publishers))
}

/// Is token `i` inside the parentheses of a call `<publisher> ( .. )`
/// opened at or after `from`? Walks back over balanced parentheses; each
/// unmatched `(` is an enclosing call (or group) whose callee precedes it.
fn inside_call_to(toks: &[Tok], from: usize, i: usize, publishers: &[&str]) -> bool {
    let mut depth = 0usize;
    for j in (from..i).rev() {
        if toks[j].kind != TokKind::Punct {
            continue;
        }
        match toks[j].text.as_str() {
            ")" => depth += 1,
            "(" if depth > 0 => depth -= 1,
            "(" if j > 0 && publishers.contains(&toks[j - 1].text.as_str()) => return true,
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use crate::{scan_source, FileMode, Finding};

    fn findings(src: &str) -> Vec<Finding> {
        scan_source("mem://publish.rs", src, FileMode::Single)
            .into_iter()
            .filter(|f| f.rule == "emit-before-publish")
            .collect()
    }

    #[test]
    fn emit_after_the_wake_is_flagged() {
        let src = "fn amo(&self) -> Result<u64, E> {\n\
                   let buf = self.pending.wait_with_retry_until(id, m, p, None, |_| Ok(()))?;\n\
                   self.obs.emit(EventKind::AmoDone, u64::from(id), [0, 0]);\n\
                   Ok(decode(buf))\n\
                   }";
        let out = findings(src);
        assert!(out.len() == 1 && out[0].line == 3, "{out:?}");
    }

    #[test]
    fn emit_inside_the_observer_is_clean() {
        let src = "fn serve(&self) {\n\
                   self.pending.fill_with(id, 0, &data, |outcome| {\n\
                   if matches!(outcome, FillOutcome::Filled) {\n\
                   self.obs.emit(EventKind::AmoDone, u64::from(id), [src, 0]);\n\
                   }\n\
                   });\n\
                   }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn emit_after_the_publishing_call_returns_is_flagged() {
        let src = "fn serve(&self) {\n\
                   let o = self.pending.fill_with(id, 0, &data, |_| {});\n\
                   self.obs.emit(EventKind::GetChunkRx, u64::from(id), [0, 4]);\n\
                   }";
        assert_eq!(findings(src).len(), 1);
    }

    #[test]
    fn wrong_publisher_does_not_count() {
        // PutAcked is published by the unacked table, not the pending one.
        let src = "fn serve(&self) {\n\
                   self.pending.fill_with(id, 0, &data, |_| {\n\
                   self.obs.emit(EventKind::PutAcked, u64::from(id), [0, 0]);\n\
                   });\n\
                   }";
        assert_eq!(findings(src).len(), 1);
    }

    #[test]
    fn no_waiter_annotation_waives_a_synchronous_site() {
        let src = "fn aperture(&self) {\n\
                   // NO-WAITER: the requester completes this get itself.\n\
                   self.obs.emit(EventKind::GetChunkRx, u64::from(id), [0, 4]);\n\
                   }";
        assert!(findings(src).is_empty());
        let bare = "fn aperture(&self) {\n\
                    // NO-WAITER:\n\
                    self.obs.emit(EventKind::GetChunkRx, u64::from(id), [0, 4]);\n\
                    }";
        assert_eq!(findings(bare).len(), 1);
    }
}
