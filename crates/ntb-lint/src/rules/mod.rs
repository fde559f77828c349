//! The rule implementations, one module per rule family.
//!
//! Hygiene rules (token-level): [`safety`], [`atomics`], [`unwraps`],
//! [`locks`], [`counters`] (`counter-via-emit`). Protocol-discipline
//! rules (function-granular, built on [`crate::parse`]): [`resolution`]
//! with its family member [`publish`] (`emit-before-publish`),
//! [`deadline`], [`bounded`], [`typederr`].
//! Shared scoping and annotation-grammar helpers live here.

pub(crate) mod atomics;
pub(crate) mod bounded;
pub(crate) mod counters;
pub(crate) mod deadline;
pub(crate) mod locks;
pub(crate) mod publish;
pub(crate) mod resolution;
pub(crate) mod safety;
pub(crate) mod typederr;
pub(crate) mod unwraps;

use crate::{FileCtx, FileMode};

/// Protocol-code scope: the crates that own pending-op lifecycles and the
/// typed error ladder. Applies to `resolution`, `emit-before-publish`,
/// `deadline-clip`, `typed-error` (and `unwraps`).
pub(crate) fn in_protocol_scope(file: &str, mode: FileMode) -> bool {
    if mode == FileMode::Single {
        return true;
    }
    let norm = file.replace('\\', "/");
    norm.contains("ntb-net/src/") || norm.contains("shmem-core/src/")
}

/// Bounded-wait scope: protocol crates plus the simulated hardware (its
/// service loops spin too); excludes `shmem-bench` (a measurement harness
/// whose busy loops *are* the workload).
pub(crate) fn in_bounded_scope(file: &str, mode: FileMode) -> bool {
    if mode == FileMode::Single {
        return true;
    }
    let norm = file.replace('\\', "/");
    norm.contains("ntb-net/src/")
        || norm.contains("shmem-core/src/")
        || norm.contains("ntb-sim/src/")
}

/// Does `text` contain a well-formed `RESOLVES(<event>): reason`
/// annotation for `event`? Pass `None` to accept any event name
/// (typed-error reuses the grammar for "no pending entry here" notes).
/// The reason must be non-empty — a bare `RESOLVES(X):` is tampering.
pub(crate) fn resolves_annotation_matches(text: &str, event: Option<&str>) -> bool {
    let mut rest = text;
    while let Some(p) = rest.find("RESOLVES(") {
        let after = &rest[p + "RESOLVES(".len()..];
        if let Some(close) = after.find(')') {
            let ev = after[..close].trim();
            let tail = after[close + 1..].trim_start();
            let ev_ok = match event {
                Some(want) => ev == want,
                None => !ev.is_empty(),
            };
            if ev_ok && tail.starts_with(':') && tail[1..].trim().len() >= 3 {
                return true;
            }
        }
        rest = after;
    }
    false
}

/// Is the site at `line` waived by a `RESOLVES(<event>): reason`
/// annotation (same line, contiguous comment block above, or the line
/// just below a block opener — same placement as every other annotation)?
pub(crate) fn has_resolves_annotation(ctx: &FileCtx<'_>, line: u32, event: Option<&str>) -> bool {
    ctx.annotated_by(line, |c| resolves_annotation_matches(c, event))
}

/// Does `text` contain `<marker>: reason` with a non-empty reason?
/// Used for `DEADLINE-CLIPPED:`, `BOUNDED-BY:` and `NO-WAITER:`.
pub(crate) fn justified_annotation_matches(text: &str, marker: &str) -> bool {
    let mut rest = text;
    while let Some(p) = rest.find(marker) {
        let tail = &rest[p + marker.len()..];
        if tail.trim().len() >= 3 {
            return true;
        }
        rest = tail;
    }
    false
}

/// Is the site at `line` waived by a `<marker> reason` annotation?
pub(crate) fn has_justified_annotation(ctx: &FileCtx<'_>, line: u32, marker: &str) -> bool {
    ctx.annotated_by(line, |c| justified_annotation_matches(c, marker))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_grammar() {
        assert!(resolves_annotation_matches(
            "// RESOLVES(GetReqTx): the cleanup loop abandons every sub-request",
            Some("GetReqTx")
        ));
        // Wrong event.
        assert!(!resolves_annotation_matches(
            "// RESOLVES(PutAcked): wrong pairing",
            Some("GetReqTx")
        ));
        // Empty reason is tampering.
        assert!(!resolves_annotation_matches("// RESOLVES(GetReqTx):", Some("GetReqTx")));
        assert!(!resolves_annotation_matches("// RESOLVES(GetReqTx): x", Some("GetReqTx")));
        // Wildcard event for typed-error sites.
        assert!(resolves_annotation_matches(
            "// RESOLVES(none): no pending entry exists at this site",
            None
        ));
        assert!(!resolves_annotation_matches("// RESOLVES(): missing event", None));
    }

    #[test]
    fn justified_grammar() {
        assert!(justified_annotation_matches(
            "// DEADLINE-CLIPPED: poll quantum, loop checks the op deadline",
            "DEADLINE-CLIPPED:"
        ));
        assert!(!justified_annotation_matches("// DEADLINE-CLIPPED:", "DEADLINE-CLIPPED:"));
        assert!(justified_annotation_matches(
            "// BOUNDED-BY: the retry sweeper drains the map",
            "BOUNDED-BY:"
        ));
        assert!(!justified_annotation_matches("// BOUNDED-BY: ", "BOUNDED-BY:"));
    }
}
