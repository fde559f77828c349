//! Offline protocol invariant checker: replays a merged event trace and
//! asserts the end-to-end guarantees the recovery machinery promises.
//!
//! The invariants, over a quiescent trace (all application traffic
//! finished, `quiet`/barrier drained before the trace was taken):
//!
//! 1. **Put resolution** — every issued put chunk (`PutIssue`) is
//!    resolved exactly once: one `PutAcked` *or* one `PutAbandon`, never
//!    both, never twice, never zero times.
//! 2. **AMO exactly-once** — an AMO request is applied (`AmoApply`) at
//!    most once; retransmissions must hit the replay cache
//!    (`AmoReplay`). A completed AMO (`AmoDone`) has exactly one apply.
//! 3. **Get coverage** — the response chunks (`GetChunkRx`) of a
//!    completed get (`GetDone`) tile the requested byte range exactly:
//!    no gap, no overlap, no spill past the end.
//! 4. **Barrier ordering** — no PE leaves a barrier epoch
//!    (`BarrierEnd`) before every participating PE has entered it
//!    (`BarrierStart`), and each PE's epochs are strictly increasing.
//! 5. **Down-link discipline** — no put chunk is transmitted
//!    (`PutChunkTx`) over a link the emitting PE currently holds Down
//!    (between its `LinkDown` and the matching `LinkUp`).
//! 6. **Slot coalescing** — every coalesced doorbell
//!    (`DoorbellCoalesce`) covers at least one published transmit-ring
//!    slot and never more slots than its ring has published so far, and
//!    every drained slot (`SlotDrain`) matches exactly one publish
//!    (`SlotPublish`) — drained at most once. Drains follow publish
//!    order: on each ring the drained sequence numbers strictly increase,
//!    and a sequence number skipped between two drains was either never
//!    published (no `SlotPublish`) or rejected at the receiver
//!    (`CrcReject` naming its slot after the publish) — a `SlotSkip`
//!    excuses nothing, a published header the receiver skipped is a lost
//!    frame. Published-but-
//!    undrained slots are legal past the last drain (a trailing batch the
//!    receiver had not consumed when the trace was cut).
//! 7. **Dead-PE discipline** — once a sender *knows* a PE is dead (the
//!    sender's own `PeDead` emission, not yet followed by its matching
//!    `PeRejoin`), it transmits no put chunk (`PutChunkTx`) at that PE.
//!    The transmit path makes this exact, not probabilistic: sends pin
//!    the membership view, so a death declaration linearizes strictly
//!    after every send that passed its liveness gate.
//! 8. **Membership-epoch monotonicity** — each PE's published membership
//!    views (`MembershipUpdate`) carry strictly increasing epochs; a
//!    regression means gossip adopted a stale view.
//! 9. **Overload bounds** — every forward-queue admission
//!    (`QueueEnqueue`) lands within the queue's advertised capacity,
//!    and flow-control credits are conserved: no `CreditConsume` shows
//!    more credits consumed than its link's cumulative grant, and each
//!    endpoint's advertised grant total (`CreditGrant`) never regresses
//!    (both counters are cumulative by design).
//! 10. **Deadline admission** — no hop transmits a frame whose deadline
//!     has already expired: every `DeadlineTx` (sampled at the admission
//!     decision, immediately before the send) has `now ≤ deadline`.
//!     Expired work must be shed (`DeadlineShed`), never forwarded.
//! 11. **Get resolution** — every issued get sub-request (`GetReqTx`)
//!     resolves exactly once: one `GetDone` *or* one `GetAbandon`, never
//!     both, never twice, never zero times. Its fills (`GetChunkRx`)
//!     never overlap one another and never spill past the requested
//!     length — even on the abandoned path, where partial coverage is
//!     legal but corruption is not. Late duplicate response chunks must
//!     be suppressed (`DupSuppressed`), never double-filled. Invariant 3
//!     checks completed gets tile exactly; this one makes the pipelined
//!     get window's bookkeeping honest on *every* path, including sheds,
//!     deadline expiry, and responder crashes mid-window.
//!
//! Invariant 4 is membership-aware: a PE whose dead interval (between
//! the first `PeDead` naming it and the first subsequent `PeRejoin`)
//! overlaps a barrier epoch's event window is excused from entering that
//! epoch — that is exactly the degraded-collective contract.
//!
//! Soundness of the replay relies on two properties of the
//! [`EventLog`]: the global sequence number is allocated with one atomic
//! `fetch_add` (a total order consistent with each thread's program
//! order), and the emission sites are placed *after* the state
//! transitions they describe (e.g. `PutChunkTx` is emitted after the
//! link-health bookkeeping, so a successful send on a recovering link
//! orders its `LinkUp` first).
//!
//! A trace that overflowed its per-PE rings ([`EventLog::dropped`]) is
//! refused rather than certified — an invariant cannot be checked
//! against evidence that was evicted.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use ntb_sim::{render_events, EventKind, EventLog, TraceEvent};

/// How many events of leading/trailing context a violation window keeps
/// around the offending events.
const WINDOW_CONTEXT: usize = 12;

/// One invariant violation, with the trace window that proves it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Short stable identifier of the violated invariant.
    pub invariant: &'static str,
    /// Human-readable description of what went wrong.
    pub message: String,
    /// The offending events plus surrounding context, in seq order.
    pub window: Vec<TraceEvent>,
}

impl Violation {
    /// Render the violation with its trace window, the format the chaos
    /// harness dumps to `target/trace-dumps/`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "invariant violated: {} — {}", self.invariant, self.message);
        out.push_str(&render_events(&self.window));
        out
    }
}

/// Outcome of one checker run.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Events replayed.
    pub events: usize,
    /// Distinct put chunks tracked through invariant 1.
    pub puts_checked: usize,
    /// Distinct AMO requests tracked through invariant 2.
    pub amos_checked: usize,
    /// Completed gets tracked through invariant 3.
    pub gets_checked: usize,
    /// Barrier epochs tracked through invariant 4.
    pub barriers_checked: usize,
    /// Transmit-ring slot publishes tracked through invariant 6.
    pub slots_checked: usize,
    /// Membership views tracked through invariant 8.
    pub membership_updates_checked: usize,
    /// Queue admissions and credit events tracked through invariant 9.
    pub overload_events_checked: usize,
    /// Admission-time transmissions tracked through invariant 10.
    pub deadline_tx_checked: usize,
    /// Issued get sub-requests tracked through invariant 11.
    pub get_reqs_checked: usize,
    /// Every violation found, in discovery order.
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// True when every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render every violation (empty string when clean).
    pub fn render_violations(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&v.render());
            out.push('\n');
        }
        out
    }
}

/// Cut a context window out of `events`: everything matching `pick`
/// plus [`WINDOW_CONTEXT`] events on either side of the first match.
fn window(events: &[TraceEvent], pick: impl Fn(&TraceEvent) -> bool) -> Vec<TraceEvent> {
    let Some(first) = events.iter().position(&pick) else {
        return Vec::new();
    };
    let lo = first.saturating_sub(WINDOW_CONTEXT);
    let hi = (first + WINDOW_CONTEXT + 1).min(events.len());
    let mut out: Vec<TraceEvent> = events[lo..hi].to_vec();
    // Matching events outside the context range still matter (e.g. the
    // second ack of a double-acked put, far downstream).
    for ev in &events[hi..] {
        if pick(ev) {
            out.push(*ev);
        }
    }
    out
}

/// Invariant 1: every `PutIssue` resolves exactly once.
fn check_puts(events: &[TraceEvent], report: &mut CheckReport) {
    // Keyed by (origin pe, put id): put ids are per-origin.
    let mut issued: HashMap<(u16, u64), (u32, u32)> = HashMap::new(); // (acked, abandoned)
    for ev in events {
        match ev.kind {
            EventKind::PutIssue => {
                issued.entry((ev.pe, ev.op_id)).or_insert((0, 0));
            }
            EventKind::PutAcked => {
                if let Some(e) = issued.get_mut(&(ev.pe, ev.op_id)) {
                    e.0 += 1;
                } else {
                    report.violations.push(Violation {
                        invariant: "put-resolution",
                        message: format!(
                            "pe {} put {} acked without a PutIssue record",
                            ev.pe, ev.op_id
                        ),
                        window: window(events, |e| {
                            e.pe == ev.pe && e.op_id == ev.op_id && put_lifecycle(e.kind)
                        }),
                    });
                }
            }
            EventKind::PutAbandon => {
                if let Some(e) = issued.get_mut(&(ev.pe, ev.op_id)) {
                    e.1 += 1;
                }
            }
            _ => {}
        }
    }
    report.puts_checked = issued.len();
    for (&(pe, id), &(acked, abandoned)) in &issued {
        let resolved = acked + abandoned;
        if resolved == 1 {
            continue;
        }
        let message = if resolved == 0 {
            format!("pe {pe} put {id} was issued but never acked nor abandoned")
        } else {
            format!(
                "pe {pe} put {id} resolved {resolved} times ({acked} acks, {abandoned} abandons)"
            )
        };
        report.violations.push(Violation {
            invariant: "put-resolution",
            message,
            window: window(events, |e| e.pe == pe && e.op_id == id && put_lifecycle(e.kind)),
        });
    }
}

fn put_lifecycle(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::PutIssue
            | EventKind::PutChunkTx
            | EventKind::PutDeliver
            | EventKind::PutAcked
            | EventKind::PutAbandon
            | EventKind::AckRx
            | EventKind::Retransmit
    )
}

/// Invariant 2: an AMO is applied at most once, and exactly once when it
/// completed at the origin.
fn check_amos(events: &[TraceEvent], report: &mut CheckReport) {
    // AmoApply is emitted at the *target* with payload[0] = origin pe and
    // op_id = the origin's request id; AmoDone at the origin.
    let mut applies: HashMap<(u64, u64), u32> = HashMap::new(); // (origin, req) -> count
    let mut done: HashSet<(u64, u64)> = HashSet::new();
    for ev in events {
        match ev.kind {
            EventKind::AmoApply => {
                *applies.entry((ev.payload[0], ev.op_id)).or_insert(0) += 1;
            }
            EventKind::AmoDone => {
                done.insert((u64::from(ev.pe), ev.op_id));
            }
            _ => {}
        }
    }
    report.amos_checked = applies.len().max(done.len());
    for (&(origin, req), &count) in &applies {
        if count > 1 {
            report.violations.push(Violation {
                invariant: "amo-exactly-once",
                message: format!("AMO req {req} from pe {origin} applied {count} times"),
                window: window(events, |e| {
                    e.op_id == req
                        && matches!(e.kind, EventKind::AmoApply | EventKind::AmoReplay)
                        && e.payload[0] == origin
                }),
            });
        }
    }
    for &(origin, req) in &done {
        if applies.get(&(origin, req)).copied().unwrap_or(0) == 0 {
            report.violations.push(Violation {
                invariant: "amo-exactly-once",
                message: format!("AMO req {req} from pe {origin} completed without an AmoApply"),
                window: window(events, |e| {
                    e.op_id == req
                        && matches!(
                            e.kind,
                            EventKind::AmoReqTx
                                | EventKind::AmoApply
                                | EventKind::AmoReplay
                                | EventKind::AmoDone
                        )
                }),
            });
        }
    }
}

/// Invariant 3: the chunks of a completed get tile `[0, len)` exactly.
fn check_gets(events: &[TraceEvent], report: &mut CheckReport) {
    let mut requested: HashMap<(u16, u64), u64> = HashMap::new(); // (pe, req) -> len
    let mut chunks: HashMap<(u16, u64), Vec<(u64, u64)>> = HashMap::new();
    let mut done: HashSet<(u16, u64)> = HashSet::new();
    for ev in events {
        match ev.kind {
            EventKind::GetReqTx => {
                requested.insert((ev.pe, ev.op_id), ev.payload[1]);
            }
            EventKind::GetChunkRx => {
                chunks.entry((ev.pe, ev.op_id)).or_default().push((ev.payload[0], ev.payload[1]));
            }
            EventKind::GetDone => {
                done.insert((ev.pe, ev.op_id));
            }
            _ => {}
        }
    }
    report.gets_checked = done.len();
    for &(pe, req) in &done {
        let Some(&len) = requested.get(&(pe, req)) else {
            continue; // request issued before tracing was enabled
        };
        let mut cs = chunks.get(&(pe, req)).cloned().unwrap_or_default();
        cs.sort_unstable();
        let mut cursor = 0u64;
        let mut bad: Option<String> = None;
        for &(off, clen) in &cs {
            if off < cursor {
                bad = Some(format!("chunk at {off} overlaps previous coverage up to {cursor}"));
                break;
            }
            if off > cursor {
                bad =
                    Some(format!("gap: coverage ends at {cursor} but next chunk starts at {off}"));
                break;
            }
            cursor = off + clen;
        }
        if bad.is_none() && cursor != len {
            bad = Some(format!("chunks cover {cursor} of {len} requested bytes"));
        }
        if let Some(why) = bad {
            report.violations.push(Violation {
                invariant: "get-coverage",
                message: format!("pe {pe} get {req}: {why}"),
                window: window(events, |e| {
                    e.pe == pe
                        && e.op_id == req
                        && matches!(
                            e.kind,
                            EventKind::GetReqTx | EventKind::GetChunkRx | EventKind::GetDone
                        )
                }),
            });
        }
    }
}

/// Invariant 11: every issued get sub-request resolves exactly once, and
/// its fills never corrupt the destination buffer.
fn check_get_resolution(events: &[TraceEvent], report: &mut CheckReport) {
    struct GetState {
        len: u64,
        done: u32,
        abandoned: u32,
        fills: Vec<(u64, u64)>,
    }
    // Keyed by (requester pe, request id): request ids are per-origin.
    let mut reqs: HashMap<(u16, u64), GetState> = HashMap::new();
    for ev in events {
        match ev.kind {
            EventKind::GetReqTx => {
                reqs.insert(
                    (ev.pe, ev.op_id),
                    GetState { len: ev.payload[1], done: 0, abandoned: 0, fills: Vec::new() },
                );
            }
            EventKind::GetChunkRx => {
                if let Some(s) = reqs.get_mut(&(ev.pe, ev.op_id)) {
                    s.fills.push((ev.payload[0], ev.payload[1]));
                } else {
                    report.violations.push(Violation {
                        invariant: "get-resolution",
                        message: format!(
                            "pe {} get {} filled without a GetReqTx record",
                            ev.pe, ev.op_id
                        ),
                        window: window(events, |e| {
                            e.pe == ev.pe && e.op_id == ev.op_id && get_lifecycle(e.kind)
                        }),
                    });
                }
            }
            EventKind::GetDone => {
                if let Some(s) = reqs.get_mut(&(ev.pe, ev.op_id)) {
                    s.done += 1;
                } else {
                    report.violations.push(Violation {
                        invariant: "get-resolution",
                        message: format!(
                            "pe {} get {} completed without a GetReqTx record",
                            ev.pe, ev.op_id
                        ),
                        window: window(events, |e| {
                            e.pe == ev.pe && e.op_id == ev.op_id && get_lifecycle(e.kind)
                        }),
                    });
                }
            }
            EventKind::GetAbandon => {
                if let Some(s) = reqs.get_mut(&(ev.pe, ev.op_id)) {
                    s.abandoned += 1;
                } else {
                    report.violations.push(Violation {
                        invariant: "get-resolution",
                        message: format!(
                            "pe {} get {} abandoned without a GetReqTx record",
                            ev.pe, ev.op_id
                        ),
                        window: window(events, |e| {
                            e.pe == ev.pe && e.op_id == ev.op_id && get_lifecycle(e.kind)
                        }),
                    });
                }
            }
            _ => {}
        }
    }
    report.get_reqs_checked = reqs.len();
    for (&(pe, req), s) in &reqs {
        let resolved = s.done + s.abandoned;
        if resolved != 1 {
            let message = if resolved == 0 {
                format!("pe {pe} get {req} was issued but never completed nor abandoned")
            } else {
                format!(
                    "pe {pe} get {req} resolved {resolved} times ({} dones, {} abandons)",
                    s.done, s.abandoned
                )
            };
            report.violations.push(Violation {
                invariant: "get-resolution",
                message,
                window: window(events, |e| e.pe == pe && e.op_id == req && get_lifecycle(e.kind)),
            });
        }
        // Fill discipline holds on every path: an abandoned window may be
        // partially covered (gaps are fine), but fills must never overlap
        // one another nor land past the requested length.
        let mut fills = s.fills.clone();
        fills.sort_unstable();
        let mut cursor = 0u64;
        let mut covered = 0u64;
        let mut bad: Option<String> = None;
        for &(off, flen) in &fills {
            if off < cursor {
                bad = Some(format!("fill at {off} overlaps previous coverage up to {cursor}"));
                break;
            }
            if off + flen > s.len {
                bad = Some(format!(
                    "fill [{off}, {}) spills past the {} requested bytes",
                    off + flen,
                    s.len
                ));
                break;
            }
            cursor = off + flen;
            covered += flen;
        }
        // A *completed* sub-request must have been filled exactly: with
        // overlap and spill excluded above, full coverage is equivalent
        // to `covered == len`. (Abandoned windows may legally stop
        // short.)
        if bad.is_none() && s.done >= 1 && covered != s.len {
            bad = Some(format!(
                "completed with {covered} of {} requested bytes filled — a dropped fill",
                s.len
            ));
        }
        if let Some(why) = bad {
            report.violations.push(Violation {
                invariant: "get-resolution",
                message: format!("pe {pe} get {req}: {why}"),
                window: window(events, |e| e.pe == pe && e.op_id == req && get_lifecycle(e.kind)),
            });
        }
    }
}

fn get_lifecycle(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::GetReqTx
            | EventKind::GetChunkRx
            | EventKind::GetDone
            | EventKind::GetAbandon
            | EventKind::Retransmit
            | EventKind::DupSuppressed
    )
}

/// The dead intervals of every PE named in a `PeDead` event: from the
/// first `PeDead` naming it (any observer) to the first subsequent
/// `PeRejoin`, or trace-end (`u64::MAX`) if it never rejoined.
fn dead_intervals(events: &[TraceEvent]) -> HashMap<u64, Vec<(u64, u64)>> {
    let mut intervals: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let mut open: HashMap<u64, u64> = HashMap::new(); // dead pe -> first PeDead seq
    for ev in events {
        match ev.kind {
            EventKind::PeDead => {
                open.entry(ev.payload[0]).or_insert(ev.seq);
            }
            EventKind::PeRejoin => {
                if let Some(start) = open.remove(&ev.payload[0]) {
                    intervals.entry(ev.payload[0]).or_default().push((start, ev.seq));
                }
            }
            _ => {}
        }
    }
    for (pe, start) in open {
        intervals.entry(pe).or_default().push((start, u64::MAX));
    }
    intervals
}

/// Invariant 4: barrier epochs are collective and ordered — no PE ends
/// an epoch before every PE started it, and each PE's epochs increase.
/// Two failure-model allowances: a PE dead for (part of) the epoch's
/// event window is excused from entering it, and a PE may *re-enter* an
/// epoch it never completed (a failed attempt surrenders its epoch and
/// the retry carries the same number) — but never one it finished.
fn check_barriers(events: &[TraceEvent], pes: usize, report: &mut CheckReport) {
    let dead = dead_intervals(events);
    let mut starts: HashMap<u64, Vec<(u16, u64)>> = HashMap::new(); // epoch -> (pe, seq)
    let mut ends: HashMap<u64, Vec<(u16, u64)>> = HashMap::new();
    let mut last_epoch: HashMap<u16, u64> = HashMap::new();
    let mut completed: HashSet<(u16, u64)> = HashSet::new();
    for ev in events {
        match ev.kind {
            EventKind::BarrierStart => {
                starts.entry(ev.op_id).or_default().push((ev.pe, ev.seq));
                if let Some(&prev) = last_epoch.get(&ev.pe) {
                    let reentered_done = ev.op_id == prev && completed.contains(&(ev.pe, prev));
                    if ev.op_id < prev || reentered_done {
                        report.violations.push(Violation {
                            invariant: "barrier-order",
                            message: format!(
                                "pe {} entered barrier epoch {} after epoch {}{}",
                                ev.pe,
                                ev.op_id,
                                prev,
                                if reentered_done { " (already completed)" } else { "" }
                            ),
                            window: window(events, |e| {
                                e.pe == ev.pe && e.kind == EventKind::BarrierStart
                            }),
                        });
                    }
                }
                last_epoch.insert(ev.pe, ev.op_id);
            }
            EventKind::BarrierEnd => {
                ends.entry(ev.op_id).or_default().push((ev.pe, ev.seq));
                completed.insert((ev.pe, ev.op_id));
            }
            _ => {}
        }
    }
    report.barriers_checked = ends.len();
    for (&epoch, enders) in &ends {
        let empty = Vec::new();
        let enterers = starts.get(&epoch).unwrap_or(&empty);
        let entered: HashSet<u16> = enterers.iter().map(|&(pe, _)| pe).collect();
        // The epoch's event window, for the dead-interval excuse below.
        let seqs = || enterers.iter().chain(enders.iter()).map(|&(_, s)| s);
        let first_seq = seqs().min().unwrap_or(0);
        let last_seq = seqs().max().unwrap_or(u64::MAX);
        let excused = |pe: u16| {
            dead.get(&u64::from(pe)).is_some_and(|ivs| {
                ivs.iter().any(|&(from, until)| from <= last_seq && until >= first_seq)
            })
        };
        let missing: Vec<u16> =
            (0..pes as u16).filter(|&pe| !entered.contains(&pe) && !excused(pe)).collect();
        if !missing.is_empty() {
            report.violations.push(Violation {
                invariant: "barrier-order",
                message: format!(
                    "barrier epoch {epoch} ended but PEs {missing:?} never entered it"
                ),
                window: window(events, |e| {
                    e.op_id == epoch
                        && matches!(e.kind, EventKind::BarrierStart | EventKind::BarrierEnd)
                }),
            });
            continue;
        }
        // Each PE's *first* entry marks when it reached the barrier; a
        // later re-entry is a retry of a failed attempt, not a new
        // arrival, so it must not push the release bound forward.
        let mut first_start: HashMap<u16, u64> = HashMap::new();
        for &(pe, s) in enterers {
            let e = first_start.entry(pe).or_insert(s);
            *e = (*e).min(s);
        }
        let max_start = first_start.values().copied().max().unwrap_or(0);
        for &(pe, end_seq) in enders {
            if end_seq < max_start {
                report.violations.push(Violation {
                    invariant: "barrier-order",
                    message: format!(
                        "pe {pe} left barrier epoch {epoch} (seq {end_seq}) before every PE \
                         entered it (last entry seq {max_start})"
                    ),
                    window: window(events, |e| {
                        e.op_id == epoch
                            && matches!(e.kind, EventKind::BarrierStart | EventKind::BarrierEnd)
                    }),
                });
            }
        }
    }
}

/// Invariant 5: no put chunk leaves over a link its PE holds Down.
fn check_down_links(events: &[TraceEvent], report: &mut CheckReport) {
    let mut down: HashSet<(u16, u16)> = HashSet::new(); // (pe, link)
    for ev in events {
        match ev.kind {
            EventKind::LinkDown => {
                down.insert((ev.pe, ev.link));
            }
            EventKind::LinkUp => {
                down.remove(&(ev.pe, ev.link));
            }
            EventKind::PutChunkTx if down.contains(&(ev.pe, ev.link)) => {
                let (pe, link, seq) = (ev.pe, ev.link, ev.seq);
                report.violations.push(Violation {
                    invariant: "down-link-discipline",
                    message: format!(
                        "pe {pe} transmitted put {} on link {link} while holding it Down \
                         (no reroute/recovery first)",
                        ev.op_id
                    ),
                    window: window(events, move |e| {
                        e.seq == seq
                            || (e.pe == pe
                                && e.link == link
                                && matches!(
                                    e.kind,
                                    EventKind::LinkDown | EventKind::LinkUp | EventKind::Reroute
                                ))
                    }),
                });
            }
            _ => {}
        }
    }
}

/// Invariant 6: coalesced doorbells and slot drains are consistent with
/// the publishes that preceded them, and drains follow publish order.
///
/// A transmit ring is identified by `(sender pe, link)`: each sender
/// owns one ring per cabled link, and its slot sequence numbers are
/// monotonic in publish order. `SlotPublish` is emitted by the sender
/// when the slot's header is written; `SlotDrain` by the *receiver* with
/// the sender's pe in `payload[0]`, so both sides key to the same ring.
/// A receiver that rejects a slot emits `CrcReject` on the same link with
/// the sender in `payload[0]` and the slot index in `payload[1]`.
fn check_slots(events: &[TraceEvent], report: &mut CheckReport) {
    let mut published: HashMap<(u16, u16), u64> = HashMap::new(); // ring -> publish count
    let mut covered: HashMap<(u16, u16), u64> = HashMap::new(); // ring -> coalesced slot count
                                                                // (ring, slot seq) -> (slot index, trace position of the publish)
    let mut publishes: HashMap<(u16, u16, u64), (u64, usize)> = HashMap::new();
    let mut drains: HashMap<(u16, u16, u64), u32> = HashMap::new();
    let mut last_drain: HashMap<(u16, u16), u64> = HashMap::new(); // ring -> last drained seq
                                                                   // (link, sender, slot index) -> trace position of the latest reject
    let mut rejects: HashMap<(u16, u64, u64), usize> = HashMap::new();
    for (pos, ev) in events.iter().enumerate() {
        match ev.kind {
            EventKind::SlotPublish => {
                *published.entry((ev.pe, ev.link)).or_insert(0) += 1;
                publishes.insert((ev.pe, ev.link, ev.op_id), (ev.payload[1], pos));
            }
            EventKind::CrcReject => {
                rejects.insert((ev.link, ev.payload[0], ev.payload[1]), pos);
            }
            EventKind::DoorbellCoalesce => {
                let n = ev.payload[0];
                if n == 0 {
                    report.violations.push(Violation {
                        invariant: "slot-coalescing",
                        message: format!(
                            "pe {} rang a coalesced doorbell covering zero slots on link {}",
                            ev.pe, ev.link
                        ),
                        window: window(events, |e| {
                            e.pe == ev.pe && e.link == ev.link && slot_lifecycle(e.kind)
                        }),
                    });
                    continue;
                }
                let c = covered.entry((ev.pe, ev.link)).or_insert(0);
                *c += n;
                let avail = published.get(&(ev.pe, ev.link)).copied().unwrap_or(0);
                if *c > avail {
                    report.violations.push(Violation {
                        invariant: "slot-coalescing",
                        message: format!(
                            "pe {} link {}: coalesced doorbells cover {} slots but only {} were \
                             published",
                            ev.pe, ev.link, *c, avail
                        ),
                        window: window(events, |e| {
                            e.pe == ev.pe && e.link == ev.link && slot_lifecycle(e.kind)
                        }),
                    });
                }
            }
            EventKind::SlotDrain => {
                // `payload[0]` carries the sending pe (the drain itself is
                // emitted at the receiver).
                let ring = (ev.payload[0] as u16, ev.link);
                *drains.entry((ring.0, ring.1, ev.op_id)).or_insert(0) += 1;
                if let Some(message) = drain_order_fault(
                    ring,
                    ev.op_id,
                    last_drain.insert(ring, ev.op_id),
                    &publishes,
                    &rejects,
                ) {
                    report.violations.push(Violation {
                        invariant: "slot-coalescing",
                        message,
                        window: window(events, |e| e.link == ring.1 && slot_lifecycle(e.kind)),
                    });
                }
            }
            _ => {}
        }
    }
    report.slots_checked = publishes.len();
    for (&(pe, link, seq), &count) in &drains {
        if !publishes.contains_key(&(pe, link, seq)) {
            report.violations.push(Violation {
                invariant: "slot-coalescing",
                message: format!(
                    "slot seq {seq} of pe {pe}'s ring on link {link} was drained without a \
                     matching publish"
                ),
                window: window(events, |e| e.link == link && slot_lifecycle(e.kind)),
            });
        } else if count > 1 {
            report.violations.push(Violation {
                invariant: "slot-coalescing",
                message: format!(
                    "slot seq {seq} of pe {pe}'s ring on link {link} was drained {count} times"
                ),
                window: window(events, |e| {
                    e.link == link && e.op_id == seq && slot_lifecycle(e.kind)
                }),
            });
        }
    }
}

/// Why draining `seq` on `ring` right after `prev` breaks publish order,
/// if it does: `seq` must be past `prev`, and every sequence number
/// skipped in between must be unpublished or rejected after its publish.
fn drain_order_fault(
    (pe, link): (u16, u16),
    seq: u64,
    prev: Option<u64>,
    publishes: &HashMap<(u16, u16, u64), (u64, usize)>,
    rejects: &HashMap<(u16, u64, u64), usize>,
) -> Option<String> {
    let prev = prev?;
    if seq == prev {
        return None; // a double drain, reported as such
    }
    if seq < prev {
        return Some(format!(
            "pe {pe}'s ring on link {link}: slot seq {seq} was drained after seq {prev}, out of \
             publish order"
        ));
    }
    (prev + 1..seq).find_map(|skipped| {
        let &(idx, at) = publishes.get(&(pe, link, skipped))?;
        let rejected = rejects.get(&(link, u64::from(pe), idx)).is_some_and(|&r| r > at);
        (!rejected).then(|| {
            format!(
                "pe {pe}'s ring on link {link}: slot seq {seq} was drained while the published \
                 seq {skipped} (slot {idx}) was neither drained nor rejected"
            )
        })
    })
}

fn slot_lifecycle(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::SlotPublish
            | EventKind::SlotDrain
            | EventKind::SlotSkip
            | EventKind::SlotReleaseMiss
            | EventKind::DoorbellCoalesce
            | EventKind::CrcReject
    )
}

/// Invariant 7: a sender that has declared a PE dead (and not yet seen
/// it rejoin) transmits no put chunk at it. Knowledge is per-sender —
/// only the sender's *own* `PeDead`/`PeRejoin` emissions gate its
/// transmissions, since gossip reaches different PEs at different times.
fn check_dead_pe_discipline(events: &[TraceEvent], report: &mut CheckReport) {
    let mut known_dead: HashSet<(u16, u64)> = HashSet::new(); // (observer, dead pe)
    for ev in events {
        match ev.kind {
            EventKind::PeDead => {
                known_dead.insert((ev.pe, ev.payload[0]));
            }
            EventKind::PeRejoin => {
                known_dead.remove(&(ev.pe, ev.payload[0]));
            }
            EventKind::PutChunkTx if known_dead.contains(&(ev.pe, ev.payload[0])) => {
                let (pe, dest, seq) = (ev.pe, ev.payload[0], ev.seq);
                report.violations.push(Violation {
                    invariant: "dead-pe-discipline",
                    message: format!(
                        "pe {pe} transmitted put {} at pe {dest} after learning of its death",
                        ev.op_id
                    ),
                    window: window(events, move |e| {
                        e.seq == seq
                            || (e.pe == pe
                                && e.payload[0] == dest
                                && matches!(e.kind, EventKind::PeDead | EventKind::PeRejoin))
                    }),
                });
            }
            _ => {}
        }
    }
}

/// Invariant 8: each PE's published membership views carry strictly
/// increasing epochs.
fn check_membership_epochs(events: &[TraceEvent], report: &mut CheckReport) {
    let mut last: HashMap<u16, u64> = HashMap::new();
    for ev in events {
        if ev.kind != EventKind::MembershipUpdate {
            continue;
        }
        report.membership_updates_checked += 1;
        if let Some(&prev) = last.get(&ev.pe) {
            if ev.op_id <= prev {
                report.violations.push(Violation {
                    invariant: "membership-epoch-monotone",
                    message: format!(
                        "pe {} published membership epoch {} after epoch {prev}",
                        ev.pe, ev.op_id
                    ),
                    window: window(events, |e| {
                        e.pe == ev.pe && e.kind == EventKind::MembershipUpdate
                    }),
                });
            }
        }
        last.insert(ev.pe, ev.op_id);
    }
}

/// Invariant 9: bounded queues stay bounded and credits are conserved.
///
/// `QueueEnqueue` carries `[post-push depth, capacity]` — an admission
/// past capacity means the bound is advisory, not enforced.
/// `CreditConsume` carries `[consumed total, granted total]` sampled at
/// the consuming endpoint (consumed first, and the grant only grows, so
/// a racy snapshot can only *under*-report the grant — a violation is
/// therefore never a sampling artifact). `CreditGrant` carries the
/// granting endpoint's cumulative total in `payload[0]`; it must never
/// regress per `(pe, link)`.
fn check_overload_bounds(events: &[TraceEvent], report: &mut CheckReport) {
    let mut last_grant: HashMap<(u16, u16), u64> = HashMap::new();
    for ev in events {
        match ev.kind {
            EventKind::QueueEnqueue => {
                report.overload_events_checked += 1;
                let (depth, capacity) = (ev.payload[0], ev.payload[1]);
                if depth > capacity {
                    let seq = ev.seq;
                    report.violations.push(Violation {
                        invariant: "overload-bounds",
                        message: format!(
                            "pe {} link {}: queue admitted op {} at depth {depth} past its \
                             capacity {capacity}",
                            ev.pe, ev.link, ev.op_id
                        ),
                        window: window(events, move |e| e.seq == seq),
                    });
                }
            }
            EventKind::CreditConsume => {
                report.overload_events_checked += 1;
                let (consumed, granted) = (ev.payload[0], ev.payload[1]);
                if consumed > granted {
                    let seq = ev.seq;
                    report.violations.push(Violation {
                        invariant: "overload-bounds",
                        message: format!(
                            "pe {} link {}: put {} consumed credit {consumed} but only \
                             {granted} were ever granted",
                            ev.pe, ev.link, ev.op_id
                        ),
                        window: window(events, move |e| e.seq == seq),
                    });
                }
            }
            EventKind::CreditGrant => {
                report.overload_events_checked += 1;
                let total = ev.payload[0];
                let prev = last_grant.entry((ev.pe, ev.link)).or_insert(total);
                if total < *prev {
                    report.violations.push(Violation {
                        invariant: "overload-bounds",
                        message: format!(
                            "pe {} link {}: cumulative credit grant regressed from {prev} to \
                             {total}",
                            ev.pe, ev.link
                        ),
                        window: window(events, |e| {
                            e.pe == ev.pe && e.link == ev.link && e.kind == EventKind::CreditGrant
                        }),
                    });
                }
                *prev = (*prev).max(total);
            }
            _ => {}
        }
    }
}

/// Invariant 10: no hop transmits an already-expired frame. `DeadlineTx`
/// is emitted only for deadline-carrying frames, with
/// `[deadline_us, now_us]` where `now` was sampled at the admission
/// decision immediately before the send — so a violation is a real
/// admission of expired work, not a slow send.
fn check_deadline_admission(events: &[TraceEvent], report: &mut CheckReport) {
    for ev in events {
        if ev.kind != EventKind::DeadlineTx {
            continue;
        }
        report.deadline_tx_checked += 1;
        let (deadline, now) = (ev.payload[0], ev.payload[1]);
        if deadline != 0 && now > deadline {
            let seq = ev.seq;
            report.violations.push(Violation {
                invariant: "deadline-admission",
                message: format!(
                    "pe {} link {}: op {} transmitted at t={now}µs, {}µs past its deadline \
                     ({deadline}µs) — expired work must be shed, not forwarded",
                    ev.pe,
                    ev.link,
                    ev.op_id,
                    now - deadline
                ),
                window: window(events, move |e| {
                    e.seq == seq
                        || matches!(e.kind, EventKind::DeadlineShed | EventKind::DeadlineTx)
                }),
            });
        }
    }
}

/// Replay `events` (must be seq-sorted, as [`EventLog::take`] returns
/// them) and check every invariant. `pes` is the PE count of the network
/// the trace came from (barrier membership).
pub fn check(events: &[TraceEvent], pes: usize) -> CheckReport {
    let mut report = CheckReport { events: events.len(), ..CheckReport::default() };
    check_puts(events, &mut report);
    check_amos(events, &mut report);
    check_gets(events, &mut report);
    check_get_resolution(events, &mut report);
    check_barriers(events, pes, &mut report);
    check_down_links(events, &mut report);
    check_slots(events, &mut report);
    check_dead_pe_discipline(events, &mut report);
    check_membership_epochs(events, &mut report);
    check_overload_bounds(events, &mut report);
    check_deadline_admission(events, &mut report);
    report
}

/// Check a live log without draining it. Refuses to certify a truncated
/// trace: ring overflow means evidence was evicted.
pub fn check_log(log: &EventLog, pes: usize) -> CheckReport {
    let events = log.merged();
    let mut report = check(&events, pes);
    let dropped = log.dropped();
    if dropped > 0 {
        report.violations.push(Violation {
            invariant: "trace-complete",
            message: format!(
                "{dropped} events were dropped (ring overflow); refusing to certify a \
                 truncated trace"
            ),
            window: Vec::new(),
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntb_sim::NO_LINK;

    fn ev(
        seq: u64,
        pe: u16,
        link: u16,
        kind: EventKind,
        op_id: u64,
        payload: [u64; 2],
    ) -> TraceEvent {
        TraceEvent { seq, t_us: seq, pe, link, kind, op_id, payload }
    }

    #[test]
    fn clean_put_lifecycle_passes() {
        let t = vec![
            ev(0, 0, NO_LINK, EventKind::PutIssue, 1, [1, 64]),
            ev(1, 0, 0, EventKind::PutChunkTx, 1, [1, 64]),
            ev(2, 1, NO_LINK, EventKind::PutDeliver, 1, [0, 0]),
            ev(3, 0, NO_LINK, EventKind::AckRx, 1, [1, 0]),
            ev(4, 0, NO_LINK, EventKind::PutAcked, 1, [1, 0]),
        ];
        let r = check(&t, 2);
        assert!(r.is_clean(), "{}", r.render_violations());
        assert_eq!(r.puts_checked, 1);
    }

    #[test]
    fn unresolved_put_is_flagged() {
        let t = vec![
            ev(0, 0, NO_LINK, EventKind::PutIssue, 1, [1, 64]),
            ev(1, 0, 0, EventKind::PutChunkTx, 1, [1, 64]),
        ];
        let r = check(&t, 2);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, "put-resolution");
        assert!(r.violations[0].message.contains("never acked"), "{}", r.violations[0].message);
        assert!(!r.violations[0].window.is_empty());
    }

    #[test]
    fn double_acked_put_is_flagged() {
        let t = vec![
            ev(0, 0, NO_LINK, EventKind::PutIssue, 7, [1, 64]),
            ev(1, 0, NO_LINK, EventKind::PutAcked, 7, [1, 0]),
            ev(2, 0, NO_LINK, EventKind::PutAcked, 7, [1, 0]),
        ];
        let r = check(&t, 2);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("2 acks"), "{}", r.violations[0].message);
    }

    #[test]
    fn acked_and_abandoned_put_is_flagged() {
        let t = vec![
            ev(0, 0, NO_LINK, EventKind::PutIssue, 7, [1, 64]),
            ev(1, 0, NO_LINK, EventKind::PutAbandon, 7, [6, 1]),
            ev(2, 0, NO_LINK, EventKind::PutAcked, 7, [1, 0]),
        ];
        let r = check(&t, 2);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("resolved 2 times"));
    }

    #[test]
    fn put_ids_are_scoped_per_origin() {
        // Two different PEs reuse put id 1; both resolve once. Clean.
        let t = vec![
            ev(0, 0, NO_LINK, EventKind::PutIssue, 1, [1, 64]),
            ev(1, 2, NO_LINK, EventKind::PutIssue, 1, [1, 64]),
            ev(2, 0, NO_LINK, EventKind::PutAcked, 1, [1, 0]),
            ev(3, 2, NO_LINK, EventKind::PutAbandon, 1, [6, 1]),
        ];
        let r = check(&t, 3);
        assert!(r.is_clean(), "{}", r.render_violations());
        assert_eq!(r.puts_checked, 2);
    }

    #[test]
    fn amo_double_apply_is_flagged_and_replay_is_not() {
        let clean = vec![
            ev(0, 0, NO_LINK, EventKind::AmoReqTx, 3, [0, 8]),
            ev(1, 1, NO_LINK, EventKind::AmoApply, 3, [0, 41]),
            ev(2, 1, NO_LINK, EventKind::AmoReplay, 3, [0, 0]),
            ev(3, 0, NO_LINK, EventKind::AmoDone, 3, [0, 0]),
        ];
        assert!(check(&clean, 2).is_clean());
        let broken = vec![
            ev(0, 0, NO_LINK, EventKind::AmoReqTx, 3, [0, 8]),
            ev(1, 1, NO_LINK, EventKind::AmoApply, 3, [0, 41]),
            ev(2, 1, NO_LINK, EventKind::AmoApply, 3, [0, 42]),
            ev(3, 0, NO_LINK, EventKind::AmoDone, 3, [0, 0]),
        ];
        let r = check(&broken, 2);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, "amo-exactly-once");
    }

    #[test]
    fn get_gap_overlap_and_spill_are_flagged() {
        let base = |chunks: &[(u64, u64)]| {
            let mut t = vec![ev(0, 0, NO_LINK, EventKind::GetReqTx, 5, [0, 100])];
            for (i, &(off, len)) in chunks.iter().enumerate() {
                t.push(ev(1 + i as u64, 0, NO_LINK, EventKind::GetChunkRx, 5, [off, len]));
            }
            t.push(ev(90, 0, NO_LINK, EventKind::GetDone, 5, [0, 100]));
            t
        };
        assert!(check(&base(&[(0, 60), (60, 40)]), 2).is_clean());
        let gap = check(&base(&[(0, 60), (70, 30)]), 2);
        assert!(gap.violations[0].message.contains("gap"), "{}", gap.violations[0].message);
        let overlap = check(&base(&[(0, 60), (50, 50)]), 2);
        assert!(overlap.violations[0].message.contains("overlap"));
        let short = check(&base(&[(0, 60)]), 2);
        assert!(short.violations[0].message.contains("cover 60 of 100"));
    }

    #[test]
    fn pipelined_get_window_resolves_cleanly() {
        // Three sub-requests in flight: two complete, one is abandoned
        // after a partial fill. Every id resolves exactly once.
        let t = vec![
            ev(0, 0, NO_LINK, EventKind::GetReqTx, 7, [0, 64]),
            ev(1, 0, NO_LINK, EventKind::GetReqTx, 8, [64, 64]),
            ev(2, 0, NO_LINK, EventKind::GetReqTx, 9, [128, 64]),
            ev(3, 0, NO_LINK, EventKind::GetChunkRx, 7, [0, 64]),
            ev(4, 0, NO_LINK, EventKind::GetChunkRx, 8, [0, 64]),
            ev(5, 0, NO_LINK, EventKind::GetDone, 7, [0, 64]),
            ev(6, 0, NO_LINK, EventKind::GetDone, 8, [64, 64]),
            ev(7, 0, NO_LINK, EventKind::GetChunkRx, 9, [0, 32]),
            ev(8, 0, NO_LINK, EventKind::GetAbandon, 9, [0, 0]),
            ev(9, 0, NO_LINK, EventKind::DupSuppressed, 9, [32, 2]),
        ];
        let r = check(&t, 2);
        assert!(r.is_clean(), "{}", r.render_violations());
        assert_eq!(r.get_reqs_checked, 3);
    }

    #[test]
    fn unresolved_and_double_resolved_gets_are_flagged() {
        let unresolved = vec![
            ev(0, 0, NO_LINK, EventKind::GetReqTx, 7, [0, 64]),
            ev(1, 0, NO_LINK, EventKind::GetChunkRx, 7, [0, 64]),
        ];
        let r = check(&unresolved, 2);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, "get-resolution");
        assert!(r.violations[0].message.contains("never completed nor abandoned"));
        let double = vec![
            ev(0, 0, NO_LINK, EventKind::GetReqTx, 7, [0, 64]),
            ev(1, 0, NO_LINK, EventKind::GetChunkRx, 7, [0, 64]),
            ev(2, 0, NO_LINK, EventKind::GetDone, 7, [0, 64]),
            ev(3, 0, NO_LINK, EventKind::GetAbandon, 7, [0, 0]),
        ];
        let r = check(&double, 2);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("resolved 2 times (1 dones, 1 abandons)"));
    }

    #[test]
    fn abandoned_get_fill_discipline_is_still_enforced() {
        // Partial coverage on an abandoned window is legal...
        let partial = vec![
            ev(0, 0, NO_LINK, EventKind::GetReqTx, 7, [0, 100]),
            ev(1, 0, NO_LINK, EventKind::GetChunkRx, 7, [0, 40]),
            ev(2, 0, NO_LINK, EventKind::GetAbandon, 7, [0, 0]),
        ];
        assert!(check(&partial, 2).is_clean());
        // ...but overlapping fills are corruption even there.
        let overlap = vec![
            ev(0, 0, NO_LINK, EventKind::GetReqTx, 7, [0, 100]),
            ev(1, 0, NO_LINK, EventKind::GetChunkRx, 7, [0, 40]),
            ev(2, 0, NO_LINK, EventKind::GetChunkRx, 7, [30, 40]),
            ev(3, 0, NO_LINK, EventKind::GetAbandon, 7, [0, 0]),
        ];
        let r = check(&overlap, 2);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("overlap"));
        // ...and so is a fill past the requested length.
        let spill = vec![
            ev(0, 0, NO_LINK, EventKind::GetReqTx, 7, [0, 100]),
            ev(1, 0, NO_LINK, EventKind::GetChunkRx, 7, [80, 40]),
            ev(2, 0, NO_LINK, EventKind::GetAbandon, 7, [0, 0]),
        ];
        let r = check(&spill, 2);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("spills past"));
    }

    #[test]
    fn get_resolution_without_request_record_is_flagged() {
        let t = vec![ev(0, 0, NO_LINK, EventKind::GetDone, 7, [0, 64])];
        let r = check(&t, 2);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("without a GetReqTx record"));
    }

    #[test]
    fn barrier_escape_and_missing_pe_are_flagged() {
        let clean = vec![
            ev(0, 0, NO_LINK, EventKind::BarrierStart, 1, [0, 0]),
            ev(1, 1, NO_LINK, EventKind::BarrierStart, 1, [0, 0]),
            ev(2, 0, NO_LINK, EventKind::BarrierEnd, 1, [0, 0]),
            ev(3, 1, NO_LINK, EventKind::BarrierEnd, 1, [0, 0]),
        ];
        assert!(check(&clean, 2).is_clean());
        let escape = vec![
            ev(0, 0, NO_LINK, EventKind::BarrierStart, 1, [0, 0]),
            ev(1, 0, NO_LINK, EventKind::BarrierEnd, 1, [0, 0]),
            ev(2, 1, NO_LINK, EventKind::BarrierStart, 1, [0, 0]),
            ev(3, 1, NO_LINK, EventKind::BarrierEnd, 1, [0, 0]),
        ];
        let r = check(&escape, 2);
        assert!(!r.is_clean());
        assert!(r.violations[0].message.contains("before every PE"));
        let missing = vec![
            ev(0, 0, NO_LINK, EventKind::BarrierStart, 1, [0, 0]),
            ev(1, 0, NO_LINK, EventKind::BarrierEnd, 1, [0, 0]),
        ];
        let r = check(&missing, 2);
        assert!(r.violations[0].message.contains("never entered"));
    }

    #[test]
    fn per_pe_epochs_must_increase() {
        let t = vec![
            ev(0, 0, NO_LINK, EventKind::BarrierStart, 2, [0, 0]),
            ev(1, 0, NO_LINK, EventKind::BarrierStart, 1, [0, 0]),
        ];
        let r = check(&t, 1);
        assert!(!r.is_clean());
        assert!(r.violations[0].message.contains("after epoch"));
    }

    #[test]
    fn put_tx_on_down_link_is_flagged_and_recovery_clears_it() {
        let broken = vec![
            ev(0, 0, 1, EventKind::LinkDown, 0, [0, 0]),
            ev(1, 0, 1, EventKind::PutChunkTx, 4, [1, 64]),
            ev(2, 0, NO_LINK, EventKind::PutIssue, 4, [1, 64]),
            ev(3, 0, NO_LINK, EventKind::PutAcked, 4, [1, 0]),
        ];
        let r = check(&broken, 2);
        assert!(r.violations.iter().any(|v| v.invariant == "down-link-discipline"));
        let recovered = vec![
            ev(0, 0, NO_LINK, EventKind::PutIssue, 4, [1, 64]),
            ev(1, 0, 1, EventKind::LinkDown, 0, [0, 0]),
            ev(2, 0, 1, EventKind::LinkUp, 0, [0, 0]),
            ev(3, 0, 1, EventKind::PutChunkTx, 4, [1, 64]),
            ev(4, 0, NO_LINK, EventKind::PutAcked, 4, [1, 0]),
        ];
        assert!(check(&recovered, 2).is_clean());
    }

    #[test]
    fn down_state_is_per_pe_and_per_link() {
        // PE 0 holds link 1 down; PE 1 transmitting on link 1 is fine,
        // and PE 0 transmitting on link 0 is fine.
        let t = vec![
            ev(0, 0, 1, EventKind::LinkDown, 0, [0, 0]),
            ev(1, 1, 1, EventKind::PutChunkTx, 9, [0, 64]),
            ev(2, 0, 0, EventKind::PutChunkTx, 8, [1, 64]),
            ev(3, 0, NO_LINK, EventKind::PutIssue, 8, [1, 64]),
            ev(4, 1, NO_LINK, EventKind::PutIssue, 9, [0, 64]),
            ev(5, 0, NO_LINK, EventKind::PutAcked, 8, [0, 0]),
            ev(6, 1, NO_LINK, EventKind::PutAcked, 9, [0, 0]),
        ];
        assert!(check(&t, 2).is_clean());
    }

    #[test]
    fn truncated_log_is_refused() {
        let log = EventLog::new(1, 16);
        log.enable();
        for i in 0..40u64 {
            log.emit(0, NO_LINK, EventKind::SpadWrite, i, [0, 0]);
        }
        let r = check_log(&log, 1);
        assert!(r.violations.iter().any(|v| v.invariant == "trace-complete"));
    }

    #[test]
    fn clean_slot_batch_passes() {
        // PE 0 publishes 3 slots on link 0, rings one coalesced doorbell,
        // PE 1 drains all three. An extra undrained publish (a trailing
        // batch) is legal.
        let t = vec![
            ev(0, 0, 0, EventKind::SlotPublish, 0, [64, 0]),
            ev(1, 0, 0, EventKind::SlotPublish, 1, [64, 1]),
            ev(2, 0, 0, EventKind::SlotPublish, 2, [64, 2]),
            ev(3, 0, 0, EventKind::DoorbellCoalesce, 0, [3, 0]),
            ev(4, 1, 0, EventKind::SlotDrain, 0, [0, 0]),
            ev(5, 1, 0, EventKind::SlotDrain, 1, [0, 1]),
            ev(6, 1, 0, EventKind::SlotDrain, 2, [0, 2]),
            ev(7, 0, 0, EventKind::SlotPublish, 3, [64, 3]),
        ];
        let r = check(&t, 2);
        assert!(r.is_clean(), "{}", r.render_violations());
        assert_eq!(r.slots_checked, 4);
    }

    #[test]
    fn empty_coalesced_doorbell_is_flagged() {
        let t = vec![
            ev(0, 0, 0, EventKind::SlotPublish, 0, [64, 0]),
            ev(1, 0, 0, EventKind::DoorbellCoalesce, 0, [0, 0]),
        ];
        let r = check(&t, 2);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, "slot-coalescing");
        assert!(r.violations[0].message.contains("zero slots"));
    }

    #[test]
    fn doorbell_covering_unpublished_slots_is_flagged() {
        let t = vec![
            ev(0, 0, 0, EventKind::SlotPublish, 0, [64, 0]),
            ev(1, 0, 0, EventKind::DoorbellCoalesce, 0, [2, 0]),
        ];
        let r = check(&t, 2);
        assert_eq!(r.violations.len(), 1);
        assert!(
            r.violations[0].message.contains("cover 2 slots but only 1"),
            "{}",
            r.violations[0].message
        );
    }

    #[test]
    fn double_drained_slot_is_flagged() {
        let t = vec![
            ev(0, 0, 0, EventKind::SlotPublish, 5, [64, 1]),
            ev(1, 0, 0, EventKind::DoorbellCoalesce, 5, [1, 0]),
            ev(2, 1, 0, EventKind::SlotDrain, 5, [0, 1]),
            ev(3, 1, 0, EventKind::SlotDrain, 5, [0, 1]),
        ];
        let r = check(&t, 2);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("drained 2 times"));
    }

    #[test]
    fn out_of_order_drain_is_flagged() {
        // Seqs 3 and 4 sit in slots 3 and 0 of a 4-slot ring; draining
        // slot 0 first (slot-index order) overtakes seq 3.
        let t = vec![
            ev(0, 0, 0, EventKind::SlotPublish, 3, [64, 3]),
            ev(1, 0, 0, EventKind::SlotPublish, 4, [64, 0]),
            ev(2, 0, 0, EventKind::DoorbellCoalesce, 3, [2, 0]),
            ev(3, 1, 0, EventKind::SlotDrain, 4, [0, 0]),
            ev(4, 1, 0, EventKind::SlotDrain, 3, [0, 3]),
        ];
        let r = check(&t, 2);
        assert_eq!(r.violations.len(), 1, "{}", r.render_violations());
        assert!(r.violations[0].message.contains("out of publish order"));
    }

    #[test]
    fn skipped_drain_needs_a_rejection_or_no_publish() {
        let base = vec![
            ev(0, 0, 0, EventKind::SlotPublish, 0, [64, 0]),
            ev(1, 0, 0, EventKind::SlotPublish, 1, [64, 1]),
            ev(2, 0, 0, EventKind::SlotPublish, 2, [64, 2]),
            ev(3, 0, 0, EventKind::DoorbellCoalesce, 0, [3, 0]),
            ev(4, 1, 0, EventKind::SlotDrain, 0, [0, 0]),
        ];
        // Seq 1 published, then silently passed over: flagged.
        let mut lost = base.clone();
        lost.push(ev(5, 1, 0, EventKind::SlotDrain, 2, [0, 2]));
        let r = check(&lost, 2);
        assert_eq!(r.violations.len(), 1, "{}", r.render_violations());
        assert!(r.violations[0].message.contains("neither drained nor rejected"));
        // Passed over with a SlotSkip: still a lost frame, still flagged.
        let mut skipped = base.clone();
        skipped.push(ev(5, 1, 0, EventKind::SlotSkip, 1, [0, 1]));
        skipped.push(ev(6, 1, 0, EventKind::SlotDrain, 2, [0, 2]));
        let r = check(&skipped, 2);
        assert_eq!(r.violations.len(), 1, "{}", r.render_violations());
        // Seq 1 rejected as corrupt at its slot: a legal gap.
        let mut rejected = base.clone();
        rejected.push(ev(5, 1, 0, EventKind::CrcReject, 0, [0, 1]));
        rejected.push(ev(6, 1, 0, EventKind::SlotDrain, 2, [0, 2]));
        let r = check(&rejected, 2);
        assert!(r.is_clean(), "{}", r.render_violations());
        // A gap over a sequence number that was never published is legal.
        let unpublished = vec![
            ev(0, 0, 0, EventKind::SlotPublish, 0, [64, 0]),
            ev(1, 0, 0, EventKind::SlotPublish, 2, [64, 2]),
            ev(2, 0, 0, EventKind::DoorbellCoalesce, 0, [2, 0]),
            ev(3, 1, 0, EventKind::SlotDrain, 0, [0, 0]),
            ev(4, 1, 0, EventKind::SlotDrain, 2, [0, 2]),
        ];
        let r = check(&unpublished, 2);
        assert!(r.is_clean(), "{}", r.render_violations());
    }

    #[test]
    fn drain_without_publish_is_flagged() {
        let t = vec![ev(0, 1, 0, EventKind::SlotDrain, 9, [0, 1])];
        let r = check(&t, 2);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("without a matching publish"));
    }

    #[test]
    fn slot_rings_are_scoped_per_sender_and_link() {
        // Two senders reuse slot seq 0 on different links; each drain
        // resolves against its own ring.
        let t = vec![
            ev(0, 0, 0, EventKind::SlotPublish, 0, [8, 0]),
            ev(1, 2, 1, EventKind::SlotPublish, 0, [8, 0]),
            ev(2, 0, 0, EventKind::DoorbellCoalesce, 0, [1, 0]),
            ev(3, 2, 1, EventKind::DoorbellCoalesce, 0, [1, 0]),
            ev(4, 1, 0, EventKind::SlotDrain, 0, [0, 0]),
            ev(5, 1, 1, EventKind::SlotDrain, 0, [2, 0]),
        ];
        let r = check(&t, 3);
        assert!(r.is_clean(), "{}", r.render_violations());
        assert_eq!(r.slots_checked, 2);
    }

    #[test]
    fn put_tx_at_known_dead_pe_is_flagged() {
        // PE 0 declares PE 2 dead (epoch 1), then still transmits at it.
        let t = vec![
            ev(0, 0, NO_LINK, EventKind::PeDead, 1, [2, 0]),
            ev(1, 0, NO_LINK, EventKind::MembershipUpdate, 1, [0b1011, 0]),
            ev(2, 0, 0, EventKind::PutChunkTx, 9, [2, 64]),
            ev(3, 0, NO_LINK, EventKind::PutIssue, 9, [2, 64]),
            ev(4, 0, NO_LINK, EventKind::PutAbandon, 9, [0, 2]),
        ];
        let r = check(&t, 4);
        assert!(r.violations.iter().any(|v| v.invariant == "dead-pe-discipline"));
    }

    #[test]
    fn dead_pe_knowledge_is_per_sender_and_rejoin_clears_it() {
        // PE 0 knows PE 2 is dead; PE 1 does not (its gossip hasn't
        // landed), so PE 1's transmit is legal. After PE 0 sees the
        // rejoin, its transmits are legal again.
        let t = vec![
            ev(0, 0, NO_LINK, EventKind::PeDead, 1, [2, 0]),
            ev(1, 1, 0, EventKind::PutChunkTx, 5, [2, 64]),
            ev(2, 0, NO_LINK, EventKind::PeRejoin, 2, [2, 1]),
            ev(3, 0, 0, EventKind::PutChunkTx, 6, [2, 64]),
            ev(4, 0, NO_LINK, EventKind::PutIssue, 6, [2, 64]),
            ev(5, 1, NO_LINK, EventKind::PutIssue, 5, [2, 64]),
            ev(6, 0, NO_LINK, EventKind::PutAcked, 6, [2, 0]),
            ev(7, 1, NO_LINK, EventKind::PutAcked, 5, [2, 0]),
        ];
        let r = check(&t, 4);
        assert!(r.is_clean(), "{}", r.render_violations());
    }

    #[test]
    fn membership_epoch_regression_is_flagged() {
        let clean = vec![
            ev(0, 0, NO_LINK, EventKind::MembershipUpdate, 1, [0b1011, 0]),
            ev(1, 0, NO_LINK, EventKind::MembershipUpdate, 2, [0b1111, 0b100]),
            ev(2, 1, NO_LINK, EventKind::MembershipUpdate, 1, [0b1011, 0]),
        ];
        let r = check(&clean, 4);
        assert!(r.is_clean(), "{}", r.render_violations());
        assert_eq!(r.membership_updates_checked, 3);
        let broken = vec![
            ev(0, 0, NO_LINK, EventKind::MembershipUpdate, 2, [0b1111, 0]),
            ev(1, 0, NO_LINK, EventKind::MembershipUpdate, 2, [0b1011, 0]),
        ];
        let r = check(&broken, 4);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, "membership-epoch-monotone");
    }

    #[test]
    fn dead_pe_is_excused_from_barriers_it_missed() {
        // PE 2 dies; PEs 0 and 1 complete epoch 1 degraded without it.
        let t = vec![
            ev(0, 0, NO_LINK, EventKind::PeDead, 1, [2, 0]),
            ev(1, 0, NO_LINK, EventKind::BarrierStart, 1, [0, 0]),
            ev(2, 1, NO_LINK, EventKind::BarrierStart, 1, [0, 0]),
            ev(3, 0, NO_LINK, EventKind::BarrierEnd, 1, [0, 0]),
            ev(4, 1, NO_LINK, EventKind::BarrierEnd, 1, [0, 0]),
        ];
        let r = check(&t, 3);
        assert!(r.is_clean(), "{}", r.render_violations());
        // Without the death, the same trace is a violation.
        let r = check(&t[1..], 3);
        assert!(r.violations.iter().any(|v| v.message.contains("never entered")));
    }

    #[test]
    fn barrier_excuse_ends_when_the_pe_rejoins() {
        // PE 2's dead interval closes before epoch 5 begins, so missing
        // that barrier is a real violation again.
        let t = vec![
            ev(0, 0, NO_LINK, EventKind::PeDead, 1, [2, 0]),
            ev(1, 0, NO_LINK, EventKind::PeRejoin, 2, [2, 1]),
            ev(2, 0, NO_LINK, EventKind::BarrierStart, 5, [0, 0]),
            ev(3, 1, NO_LINK, EventKind::BarrierStart, 5, [0, 0]),
            ev(4, 0, NO_LINK, EventKind::BarrierEnd, 5, [0, 0]),
            ev(5, 1, NO_LINK, EventKind::BarrierEnd, 5, [0, 0]),
        ];
        let r = check(&t, 3);
        assert!(r.violations.iter().any(|v| v.message.contains("never entered")));
    }

    #[test]
    fn overload_bounds_certify_clean_trace_and_catch_tampering() {
        // A healthy overload episode: admissions inside capacity, credits
        // conserved, grants monotone, one shed (sheds are legal — they
        // are the mechanism, not a violation).
        let clean = vec![
            ev(0, 0, 0, EventKind::CreditGrant, 0, [16, 0]),
            ev(1, 1, 0, EventKind::CreditConsume, 1, [1, 16]),
            ev(2, 1, 0, EventKind::QueueEnqueue, 1, [1, 4]),
            ev(3, 1, 0, EventKind::QueueEnqueue, 2, [4, 4]),
            ev(4, 1, 0, EventKind::OverloadShed, 3, [4, 4]),
            ev(5, 0, 0, EventKind::CreditGrant, 0, [18, 0]),
            ev(6, 1, 0, EventKind::CreditConsume, 4, [2, 18]),
        ];
        let r = check(&clean, 2);
        assert!(r.is_clean(), "{}", r.render_violations());
        assert_eq!(r.overload_events_checked, 6);

        // Tampering control 1: an admission past capacity must be caught.
        let mut t = clean.clone();
        t[3] = ev(3, 1, 0, EventKind::QueueEnqueue, 2, [5, 4]);
        let r = check(&t, 2);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, "overload-bounds");
        assert!(r.violations[0].message.contains("past its capacity"));

        // Tampering control 2: consuming more credits than ever granted.
        let mut t = clean.clone();
        t[6] = ev(6, 1, 0, EventKind::CreditConsume, 4, [19, 18]);
        let r = check(&t, 2);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("were ever granted"));

        // Tampering control 3: a regressing cumulative grant.
        let mut t = clean;
        t[5] = ev(5, 0, 0, EventKind::CreditGrant, 0, [15, 0]);
        t[6] = ev(6, 1, 0, EventKind::CreditConsume, 4, [2, 16]);
        let r = check(&t, 2);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("regressed"));
    }

    #[test]
    fn credit_grants_are_scoped_per_endpoint() {
        // Different (pe, link) endpoints carry independent cumulative
        // totals; a lower total on another endpoint is not a regression.
        let t = vec![
            ev(0, 0, 0, EventKind::CreditGrant, 0, [100, 0]),
            ev(1, 1, 1, EventKind::CreditGrant, 0, [5, 0]),
            ev(2, 0, 0, EventKind::CreditGrant, 0, [101, 0]),
        ];
        let r = check(&t, 2);
        assert!(r.is_clean(), "{}", r.render_violations());
    }

    #[test]
    fn deadline_admission_certifies_clean_trace_and_catches_tampering() {
        // Transmissions at and before the deadline are legal; sheds of
        // expired work are the expected shape, not violations.
        let clean = vec![
            ev(0, 0, 0, EventKind::DeadlineTx, 1, [1000, 400]),
            ev(1, 1, 0, EventKind::DeadlineTx, 1, [1000, 1000]),
            ev(2, 1, 0, EventKind::DeadlineShed, 2, [500, 900]),
        ];
        let r = check(&clean, 2);
        assert!(r.is_clean(), "{}", r.render_violations());
        assert_eq!(r.deadline_tx_checked, 2);

        // Tampering control: forwarding a frame 250µs past its deadline.
        let mut t = clean;
        t[1] = ev(1, 1, 0, EventKind::DeadlineTx, 1, [1000, 1250]);
        let r = check(&t, 2);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, "deadline-admission");
        assert!(r.violations[0].message.contains("250µs past its deadline"));
        assert!(!r.violations[0].window.is_empty());
    }

    #[test]
    fn empty_trace_is_clean() {
        let r = check(&[], 4);
        assert!(r.is_clean());
        assert_eq!(r.events, 0);
    }

    #[test]
    fn violation_window_carries_context() {
        let mut t: Vec<TraceEvent> =
            (0..40).map(|i| ev(i, 0, NO_LINK, EventKind::SpadWrite, 1000 + i, [0, 0])).collect();
        t.push(ev(40, 0, NO_LINK, EventKind::PutIssue, 7, [1, 64]));
        let r = check(&t, 1);
        assert_eq!(r.violations.len(), 1);
        let w = &r.violations[0].window;
        assert!(w.iter().any(|e| e.kind == EventKind::PutIssue));
        assert!(w.len() > 1, "window should carry surrounding context");
        let rendered = r.violations[0].render();
        assert!(rendered.contains("put_issue"), "{rendered}");
    }
}
