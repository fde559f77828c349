//! The per-host service threads: the paper's Fig. 5 state machine.
//!
//! Each link endpoint runs two background threads:
//!
//! * the **service loop** waits on the doorbell, drains the endpoint's
//!   slot ring in publish order (copying each payload out of its lane or
//!   payload area and releasing the slot), and dispatches: deliver to the
//!   local symmetric space, serve a Get, execute an atomic, count an
//!   ack — or hand the frame to the opposite endpoint's forwarder if this
//!   host is not the final destination;
//! * the **forwarder loop** drains the endpoint's [`ForwardQueue`](crate::forwarder::ForwardQueue),
//!   re-transmitting staged frames towards their destination (the bypass
//!   data path of paper Fig. 4).
//!
//! The split is what makes the ring deadlock-free: the service loop never
//! blocks on an outbound slot ring.
//!
//! A third per-*node* thread, the **retry sweeper**, owns end-to-end
//! recovery: it retransmits put chunks whose destination's retransmission
//! timer expired ([`crate::rto`]: learned from the acks, doubled per
//! attempt, abandonment into `quiet` once the budget is spent) and probes
//! `Down` endpoints back into service.
//!
//! Lossy-link hardening in the receive path: the idle tick also drains the
//! ring (a dropped doorbell otherwise strands a batch in its slots), every
//! record and payload is CRC-checked against its slot's integrity word on
//! links with an armed fault plan (a corrupted frame is dropped and
//! recovered by retransmission), and deliveries are deduplicated so
//! retransmissions stay idempotent.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ntb_sim::{DoorbellWaiter, EventKind, Result};

use crate::doorbells::{DB_DMAPUT, DB_GOSSIP, DB_SHUTDOWN, SERVICE_INTEREST};
use crate::forwarder::ForwardJob;
use crate::frame::{Frame, FrameKind};
use crate::membership::{self, rejoin_signature, BeatMonitor, BeatVerdict, REJOIN_FLAG};
use crate::node::NtbNode;
use crate::pending::FillOutcome;
use crate::rto;
use crate::slots::{self, Drained, DrainedSlot};

/// How long the service loop sleeps between shutdown-flag checks when the
/// doorbell stays silent. Doubles as the lost-doorbell recovery latency:
/// the idle tick drains the ring even without an interrupt.
const IDLE_TICK: Duration = Duration::from_millis(100);

/// Receive loop for endpoint `idx` (paper Fig. 5:
/// `Do_DMAPutInterruptService` / `Do_DMAGetInterruptService`).
pub(crate) fn service_loop(node: &Arc<NtbNode>, idx: usize) {
    let ep = &node.endpoints[idx];
    let hb = node.config().heartbeat;
    // With the detector on, the idle tick must keep up with the beat
    // period.
    let tick = if hb.enabled { IDLE_TICK.min(hb.period) } else { IDLE_TICK };
    let mut beat = HeartbeatState::default();
    // This thread is the only one draining this endpoint's ring.
    let mut cursor = slots::RxCursor::default();
    loop {
        if node.is_shutdown() {
            return;
        }
        if ep.port().is_dead() || ep.port().is_frozen() || node.is_rejoining() {
            // A crashed host's threads do nothing until `restart()`
            // revives the ports, and a hung (frozen) host drains and
            // beats nothing until it thaws — and while the rejoin
            // handshake runs it owns the heartbeat block, so the loop
            // stays parked.
            // DEADLINE-CLIPPED: 1 ms park tick; the loop re-checks the
            // shutdown flag and port state every iteration.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let mut gossip = false;
        // DEADLINE-CLIPPED: `tick` is the idle-poll quantum of the service
        // loop — there is no op deadline here, only the lost-interrupt net.
        let woke = ep.port().wait_doorbell(SERVICE_INTEREST, Some(tick));
        if ep.port().is_frozen() {
            // Frozen while waiting: a hung host services nothing, and the
            // pending doorbell bits wait for the thaw.
            continue;
        }
        match woke {
            DoorbellWaiter::TimedOut => {
                // Lost-interrupt safety net: a dropped doorbell leaves a
                // batch stranded in the ring with nothing to announce it;
                // the idle poll picks it up within one tick.
                drain_ring(node, idx, &mut cursor);
            }
            DoorbellWaiter::Fired(bits) => {
                if bits & (1 << DB_SHUTDOWN) != 0 {
                    return;
                }
                // Acknowledge the interrupt before processing so a ring
                // for the *next* batch (sent after our slot releases) is
                // not lost.
                ep.port().clear_doorbell(bits & ((1 << DB_DMAPUT) | (1 << DB_GOSSIP)));
                gossip = bits & (1 << DB_GOSSIP) != 0;
                // ISR + wakeup + the prototype's sleep-and-wait loop.
                node.model().delay(node.model().interrupt_service_delay);
                drain_ring(node, idx, &mut cursor);
            }
        }
        if hb.enabled {
            heartbeat_tick(node, idx, &mut beat, gossip);
        }
    }
}

/// Per-service-thread heartbeat state: this endpoint's own beat counter
/// plus the detector watching the one neighbour behind this link.
#[derive(Default)]
struct HeartbeatState {
    my_beat: u32,
    last: Option<Instant>,
    monitor: BeatMonitor,
}

/// One heartbeat round on endpoint `idx`: stamp our beat (when the period
/// elapsed), publish our membership view, sample the neighbour's block,
/// and react — adopt newer gossiped views, admit rejoin requests, track
/// beat stalls through the failure detector, and confirm deaths.
///
/// `gossip` forces an immediate sample (the neighbour rang
/// [`DB_GOSSIP`]), so view changes propagate ring-wide in link-hops, not
/// in heartbeat periods.
fn heartbeat_tick(node: &Arc<NtbNode>, idx: usize, st: &mut HeartbeatState, gossip: bool) {
    let cfg = node.config().heartbeat;
    let due = st.last.is_none_or(|t| t.elapsed() >= cfg.period);
    if !due && !gossip {
        return;
    }
    let ep = &node.endpoints[idx];
    if due {
        st.last = Some(Instant::now());
        st.my_beat = (st.my_beat + 1) & !REJOIN_FLAG;
        if st.my_beat == 0 {
            st.my_beat = 1; // zero means "no beat yet"; skip it on wrap
        }
        // Failures here are link faults (or our own death racing the
        // crash injector); either way the beat simply doesn't land and
        // the neighbour's detector does its job.
        let _ = membership::write_beat(ep.port(), st.my_beat);
    }
    let _ = membership::publish_view(ep.port(), node.membership().view());
    // Credit upkeep rides the heartbeat: re-advertise the grant total
    // (deferred advertisements from congested spells catch up here once
    // the queue drains) and absorb the peer's latest advertisement.
    node.advertise_credits(ep);
    node.refresh_credits(ep);
    let Ok(Some((raw, peer_view))) = membership::read_peer_block(ep.port()) else {
        // A torn sample or a faulted link: neither says anything about
        // the *node* behind the link. Resample next tick.
        return;
    };
    let pe = ep.neighbor();
    if raw & REJOIN_FLAG != 0 {
        // A rejoin request: the restarted neighbour publishes a
        // config-derived signature instead of a counter. Validate it
        // (scratchpad garbage must not re-admit a dead PE), purge our
        // duplicate-suppression state for the PE (a crash lost *its*
        // tables, so its fresh ids would otherwise be suppressed), and
        // gossip it back in at a new epoch.
        if (raw & !REJOIN_FLAG) == rejoin_signature(pe, node.num_hosts()) {
            if let Some(view) = node.membership().mark_rejoined(pe) {
                ep.obs.emit(EventKind::PeRejoin, view.epoch, [pe as u64, 1]);
                node.emit_membership_update(view);
                node.purge_peer_state(pe);
                node.gossip_view(view);
            }
        }
        st.monitor.clear();
        return;
    }
    // Adopt a strictly newer gossiped view (the node reacts to every
    // transition it carries), then judge the neighbour's beat.
    node.adopt_view(peer_view);
    let view = node.membership().view();
    if !view.is_live(pe) {
        // The neighbour is dead in our view. Its beat advancing again
        // without a rejoin request is a *thaw*: the host was frozen, not
        // crashed, so its state survived and no purge happens.
        if raw != 0 && matches!(st.monitor.observe(raw, &cfg), BeatVerdict::Alive) {
            if let Some(v) = node.membership().mark_alive(pe, false) {
                ep.obs.emit(EventKind::PeRejoin, v.epoch, [pe as u64, 0]);
                node.emit_membership_update(v);
                node.gossip_view(v);
            }
        }
        return;
    }
    match st.monitor.observe(raw, &cfg) {
        BeatVerdict::Alive | BeatVerdict::Missed(_) | BeatVerdict::Suspect => {}
        BeatVerdict::NewlySuspect(missed) => {
            ep.obs.emit(EventKind::PeSuspect, view.epoch, [pe as u64, u64::from(missed)]);
        }
        BeatVerdict::ConfirmDue => {
            // Death-vs-link-down distinguisher: a doorbell ring reaches a
            // dead host's register block fine (nobody answers, but the
            // write lands), while a faulted cable refuses it. Only a
            // stall the probe cannot blame on the link becomes a death.
            match ep.port().ring_peer(DB_GOSSIP) {
                Err(_) => st.monitor.defer(),
                Ok(()) => {
                    node.confirm_death(pe);
                    st.monitor.clear();
                }
            }
        }
    }
}

/// Queue `frame` on the forwarder of the adapter it leaves through
/// ([`NtbNode::egress`]; `arrived` is the adapter a forwarded frame came
/// in on). Returns whether the queue admitted it.
fn enqueue(
    node: &NtbNode,
    frame: Frame,
    payload: Option<Vec<u8>>,
    think: Duration,
    arrived: Option<usize>,
) -> bool {
    let (aux, deadline_us) = (u64::from(frame.aux), frame.deadline_us);
    let out = node.egress(frame.dest, arrived, &node.membership().view());
    let now = node.now_us();
    let outcome = out.fwd.push(ForwardJob { frame, payload, think, attempts: 0 }, now);
    node.note_push(out, outcome, aux, deadline_us, now)
}

/// Hand a non-terminating frame to the onward forwarder (paper Fig. 5:
/// "Destination is my neighbor? / Bypass data via transfer buffer").
/// Split horizon: never back out the arrival endpoint `idx`.
fn forward_onward(node: &Arc<NtbNode>, idx: usize, frame: Frame, payload: Option<Vec<u8>>) {
    // The bypass-buffer staging cost only applies to payloads that will
    // actually stage through the next hop's bypass area. A payload that
    // fits a slot lane (the same on every adapter) is re-published
    // straight into the ring; its real costs — slot PIO writes, the
    // coalesced doorbell, the next hop's interrupt — are charged by the
    // ring machinery itself.
    let think = match &payload {
        Some(data) if data.len() as u64 > node.layout.ring_lane => {
            node.model().bypass_forward_delay
        }
        _ => Duration::ZERO,
    };
    let (aux, ends) = (u64::from(frame.aux), [frame.src as u64, frame.dest as u64]);
    if enqueue(node, frame, payload, think, Some(idx)) {
        node.endpoints[idx].obs.emit(EventKind::FrameFwd, aux, ends);
    }
}

/// Consume every published slot of endpoint `idx`'s receive-side transmit
/// ring, in publish order (see [`slots::drain_in_order`]). One coalesced
/// doorbell (or one idle tick) drains the whole batch.
fn drain_ring(node: &Arc<NtbNode>, idx: usize, cursor: &mut slots::RxCursor) {
    let ep = &node.endpoints[idx];
    let src = slots::RegionSlots {
        region: ep.port().incoming().region(),
        layout: &node.layout,
        me: node.host_id(),
        // The fault plan is per-link and symmetric: the peer arms its CRC
        // exactly when our outgoing half reports an active plan.
        check_crc: ep.port().outgoing().faults().is_active(),
        model: node.model(),
    };
    let sender = ep.neighbor() as u64;
    let result = slots::drain_in_order(&src, cursor, |drained| match drained {
        Drained::Rejected { idx: slot, header } => {
            // Consumed without dispatch (and without a SlotDrain event —
            // a corrupted record's sequence number cannot be trusted to
            // pair with any publish); the sender's end-to-end
            // retransmission recovers the frame.
            ep.obs.emit(EventKind::CrcReject, 0, [sender, u64::from(slot)]);
            // A rejected put from the neighbour still consumed one of its
            // credits: grant it back, or every corrupted put would shrink
            // the link's window for good. The header is the best witness
            // left; a corruption inside it may misname the kind, which
            // costs or adds one credit once.
            if Frame::decode([header, 0, 0, 0])
                .is_some_and(|f| f.kind == FrameKind::Put && f.src == ep.neighbor())
            {
                node.grant_credits(ep, 1);
            }
        }
        Drained::Skipped { seq, idx: slot } => {
            // A lost header, not a checksum failure: counted apart so a
            // fault-free link shows it. Recovery is end to end.
            ep.obs.emit(EventKind::SlotSkip, u64::from(seq), [sender, u64::from(slot)]);
        }
        Drained::ReleaseMiss { idx: slot, header } => {
            ep.obs.emit(EventKind::SlotReleaseMiss, u64::from(header), [sender, u64::from(slot)]);
        }
        Drained::Frame(drained) => dispatch_slot(node, idx, drained),
    });
    if let Err(e) = result {
        node.record_error(e);
    }
}

/// Dispatch one frame drained from endpoint `idx`'s ring (its slot is
/// already consumed, freeing it for the sender's next wraparound).
fn dispatch_slot(node: &Arc<NtbNode>, idx: usize, drained: DrainedSlot) {
    let ep = &node.endpoints[idx];
    let frame = drained.frame;
    ep.obs.emit(
        EventKind::SlotDrain,
        u64::from(drained.slot_seq),
        [ep.neighbor() as u64, u64::from(drained.slot_idx)],
    );
    if frame.dest >= node.num_hosts() || frame.src >= node.num_hosts() {
        // Out-of-world routing fields (possible on an unchecked link,
        // where no CRC arms): drop instead of panicking the router — but
        // *visibly*, as a counted router drop, not a silent discard.
        ep.obs.emit(EventKind::RouterDrop, u64::from(frame.aux), [frame.dest as u64, 1]);
        return;
    }
    ep.obs.emit(EventKind::FrameRx, u64::from(frame.aux), [frame.kind as u64, frame.src as u64]);
    // First-hop credit bookkeeping (DESIGN.md §14): one arrived put from
    // the direct neighbour is exactly one credit its gate consumed — grant
    // it back.
    if frame.kind == FrameKind::Put && frame.src == ep.neighbor() {
        node.grant_credits(ep, 1);
    }
    // Deadline propagation: every hop sheds expired work — a frame whose
    // deadline passed is dead weight whether it terminates here or has
    // half the ring left to cross.
    let now = node.now_us();
    if frame.deadline_expired(now) {
        ep.obs.emit(
            EventKind::DeadlineShed,
            u64::from(frame.aux),
            [u64::from(frame.deadline_us), u64::from(now)],
        );
        return;
    }
    // An area payload paid its copy before its slot was released.
    if let Some(data) = drained.payload.as_ref().filter(|d| d.len() as u64 <= node.layout.ring_lane)
    {
        node.model().delay(node.model().window_copy_time(data.len() as u64));
    }
    let result = if frame.dest == node.host_id() {
        dispatch_frame(node, frame, drained.payload)
    } else {
        // Routed frames ride the ring on every hop; intermediate hosts
        // route them onward (paper Fig. 5: "Destination is my neighbor?").
        forward_onward(node, idx, frame, drained.payload);
        Ok(())
    };
    if let Err(e) = result {
        node.record_error(e);
    }
}

/// Terminating per-kind frame logic for a frame drained from the ring.
fn dispatch_frame(node: &Arc<NtbNode>, frame: Frame, payload: Option<Vec<u8>>) -> Result<()> {
    let me = node.host_id();
    match frame.kind {
        FrameKind::Put => {
            // Duplicate suppression: a retransmitted chunk whose first
            // copy already landed must not be re-applied (the heap may
            // have been overwritten since), but is re-acknowledged —
            // the first ack evidently went missing. Put id 0 marks
            // untracked traffic and bypasses dedup.
            let fresh = frame.aux == 0 || node.seen_puts.lock().insert(frame.src, frame.aux);
            if fresh {
                let data = payload.unwrap_or_default();
                node.deliver()?.deliver_put(u64::from(frame.offset), &data)?;
                node.obs.emit(
                    EventKind::PutDeliver,
                    u64::from(frame.aux),
                    [frame.src as u64, u64::from(frame.offset)],
                );
            } else {
                node.obs.emit(
                    EventKind::DupSuppressed,
                    u64::from(frame.aux),
                    [frame.src as u64, 0],
                );
            }
            // Route the delivery acknowledgement back to the origin —
            // unless the fault plan deliberately breaks the ack protocol
            // (the knob exists so the invariant checker can be shown a
            // genuinely ack-less put in negative tests).
            let out = node.egress(frame.src, None, &node.membership().view());
            if !out.port().outgoing().faults().should_drop_ack(out.port().outgoing().direction()) {
                // The ack inherits the put's deadline: an op that missed
                // its time budget must not look complete at the origin.
                let ack =
                    Frame::put_ack(me, frame.src, 1, frame.aux).with_deadline_us(frame.deadline_us);
                let now = node.now_us();
                let outcome = out.fwd.push(
                    ForwardJob { frame: ack, payload: None, think: Duration::ZERO, attempts: 0 },
                    now,
                );
                let _ = node.note_push(out, outcome, u64::from(frame.aux), frame.deadline_us, now);
            }
        }
        FrameKind::PutAck => {
            node.obs.emit(EventKind::AckRx, u64::from(frame.aux), [frame.src as u64, 0]);
            // The resolution is logged and counted under the table lock,
            // before the woken `quiet` can return (or its caller take the
            // trace or a stats snapshot).
            let acked = node.unacked.ack_with(frame.aux, |known| {
                if known {
                    node.obs.emit(EventKind::PutAcked, u64::from(frame.aux), [frame.src as u64, 0]);
                }
            });
            // Karn's rule: only a put transmitted once, with its doorbell,
            // is a clean round trip; any ack still restarts the timers.
            match &acked {
                Some(put) if put.attempts == 1 && put.timed => {
                    node.rto.sample(frame.src, put.sent.elapsed())
                }
                _ => node.rto.progress(),
            }
            if acked.is_none() {
                // The put was already retired by an earlier copy of this
                // ack (retransmission raced the acknowledgement).
                node.obs.emit(
                    EventKind::DupSuppressed,
                    u64::from(frame.aux),
                    [frame.src as u64, 1],
                );
            }
        }
        FrameKind::GetReq => {
            let mut data = vec![0u8; frame.len as usize];
            node.deliver()?.read_for_get(u64::from(frame.offset), &mut data)?;
            node.model().delay(node.model().local_copy_time(u64::from(frame.len)));
            node.obs.emit(
                EventKind::GetServe,
                u64::from(frame.aux),
                [frame.src as u64, data.len() as u64],
            );
            if data.is_empty() {
                // A zero-length get completes at the requester without a
                // response (its pending entry was born complete).
                return Ok(());
            }
            let chunk = node.config().get_resp_chunk as usize;
            let mut off = 0usize;
            while off < data.len() {
                let n = chunk.min(data.len() - off);
                let resp =
                    Frame::get_resp(me, frame.src, n as u32, off as u32, frame.aux, frame.mode)
                        .with_deadline_us(frame.deadline_us);
                // The per-request service think is paid once, on the
                // first response chunk; the rest of the stream is pure
                // descriptor work. This is what makes the pipelined get
                // path amortize the responder: a window of sub-requests
                // charges one think per sub-request, not per chunk.
                let think =
                    if off == 0 { node.model().get_response_service_delay } else { Duration::ZERO };
                enqueue(node, resp, Some(data[off..off + n].to_vec()), think, None);
                off += n;
            }
        }
        FrameKind::GetResp => {
            node.rto.progress();
            let data = payload.unwrap_or_default();
            // Emission goes through the fill observer so the chunk event
            // is logged before the woken requester can log completion.
            node.pending.fill_with(frame.aux, u64::from(frame.offset), &data, |outcome| {
                match outcome {
                    FillOutcome::Filled => {
                        node.obs.emit(
                            EventKind::GetChunkRx,
                            u64::from(frame.aux),
                            [u64::from(frame.offset), data.len() as u64],
                        );
                    }
                    FillOutcome::Duplicate | FillOutcome::Stale => {
                        node.obs.emit(
                            EventKind::DupSuppressed,
                            u64::from(frame.aux),
                            [u64::from(frame.offset), 2],
                        );
                    }
                }
            })?;
        }
        FrameKind::AmoReq => {
            // Idempotency: a retransmitted AMO request must not execute
            // twice; the cached old value of the first execution is
            // re-served. The lookup is bound to a plain value first: an
            // `if let` scrutinee would keep the cache guard alive for the
            // whole expression (2021 temporary-scope rules), pinning the
            // net-dedup lock across the forward below.
            let cached = node.amo_cache.lock().lookup(frame.src, frame.aux);
            if let Some(old) = cached {
                node.obs.emit(EventKind::AmoReplay, u64::from(frame.aux), [frame.src as u64, 0]);
                let resp =
                    Frame::amo_resp(me, frame.src, frame.aux).with_deadline_us(frame.deadline_us);
                enqueue(node, resp, Some(old.to_le_bytes().to_vec()), Duration::ZERO, None);
                return Ok(());
            }
            let p = payload.unwrap_or_default();
            if p.len() < 17 {
                return Err(ntb_sim::NtbError::BadDescriptor { reason: "short AMO payload" });
            }
            let operand =
                u64::from_le_bytes(p[0..8].try_into().map_err(|_| {
                    ntb_sim::NtbError::BadDescriptor { reason: "short AMO payload" }
                })?);
            let compare =
                u64::from_le_bytes(p[8..16].try_into().map_err(|_| {
                    ntb_sim::NtbError::BadDescriptor { reason: "short AMO payload" }
                })?);
            let width = p[16] as usize;
            let op = frame
                .amo_op
                .ok_or(ntb_sim::NtbError::BadDescriptor { reason: "AMO frame without opcode" })?;
            let old = node.deliver()?.deliver_atomic(
                op,
                u64::from(frame.offset),
                width,
                operand,
                compare,
            )?;
            node.amo_cache.lock().insert(frame.src, frame.aux, old);
            node.obs.emit(EventKind::AmoApply, u64::from(frame.aux), [frame.src as u64, old]);
            let resp =
                Frame::amo_resp(me, frame.src, frame.aux).with_deadline_us(frame.deadline_us);
            enqueue(node, resp, Some(old.to_le_bytes().to_vec()), Duration::ZERO, None);
        }
        FrameKind::AmoResp => {
            node.rto.progress();
            let data = payload.unwrap_or_default();
            if data.len() < 8 {
                return Err(ntb_sim::NtbError::BadDescriptor { reason: "short AMO response" });
            }
            // The resolution is logged under the entry lock, before the
            // woken requester can return the value (or its caller take
            // the trace).
            node.pending.fill_with(frame.aux, 0, &data[0..8], |outcome| {
                let (kind, code) = match outcome {
                    FillOutcome::Filled => (EventKind::AmoDone, 0),
                    FillOutcome::Duplicate | FillOutcome::Stale => (EventKind::DupSuppressed, 3),
                };
                node.obs.emit(kind, u64::from(frame.aux), [frame.src as u64, code]);
            })?;
        }
    }
    Ok(())
}

/// Transmit loop for endpoint `idx`: drains the forward queue. A
/// transiently failed transmission is re-dispatched (possibly through the
/// other endpoint once rerouting kicks in) up to the retry budget; after
/// that the frame is dropped and the origin's end-to-end retransmission
/// recovers.
pub(crate) fn forwarder_loop(node: &Arc<NtbNode>, idx: usize) {
    let ep = &node.endpoints[idx];
    let policy = node.config().retry;
    while let Some(mut job) = ep.fwd.pop() {
        if ep.port().is_dead() {
            // This host crashed: its queued traffic dies with it. The
            // senders recover end-to-end once the ring heals around us.
            continue;
        }
        if !node.membership().is_live(job.frame.dest) {
            // The destination PE is confirmed dead — transmitting at it
            // only burns the retry budget of a frame nobody will ack.
            ep.obs.emit(
                EventKind::RouterDrop,
                u64::from(job.frame.aux),
                [job.frame.dest as u64, 2],
            );
            continue;
        }
        node.model().delay(job.think);
        // Transmit-time deadline check — sampled after the think delay
        // and immediately before the send, so the pair certifies
        // invariant 10 (no hop transmits an already-expired frame).
        let now = node.now_us();
        if job.frame.deadline_expired(now) {
            ep.obs.emit(
                EventKind::DeadlineShed,
                u64::from(job.frame.aux),
                [u64::from(job.frame.deadline_us), u64::from(now)],
            );
            continue;
        }
        // Every job rides the ring: back-to-back jobs batch behind one
        // doorbell, so a round of routed frames crossing the same link
        // shares one interrupt.
        let result = ep.txring.send(job.frame, job.payload.as_deref(), false);
        node.note_send_result(ep, &result);
        if result.is_ok() && job.frame.deadline_us != 0 {
            ep.obs.emit(
                EventKind::DeadlineTx,
                u64::from(job.frame.aux),
                [u64::from(job.frame.deadline_us), u64::from(now)],
            );
        }
        // Ring the coalesced doorbell once the queue goes momentarily
        // idle; while more jobs are waiting, the batch keeps growing (the
        // ring auto-flushes at its batch cap). A flush failure is not
        // re-queued: staged puts are recovered by their origin's
        // retransmission and a lost ack is re-served on the duplicate.
        if ep.fwd.depth() == 0 && ep.txring.staged() > 0 {
            node.flush_ring(ep);
        }
        if let Err(e) = result {
            if node.is_shutdown() {
                return;
            }
            let transient = e.is_transient() || matches!(e, ntb_sim::NtbError::LinkFailed { .. });
            if transient && job.attempts < policy.max_retries {
                // Retry budget: retries are the classic congestion
                // amplifier, so each link meters them through a token
                // bucket. A dry bucket sheds the retransmission — typed
                // and counted, never silent — and the origin's end-to-end
                // recovery (or the op's deadline) takes it from here.
                if !ep.retry_budget.try_spend() {
                    ep.obs.emit(
                        EventKind::RetryShed,
                        u64::from(job.frame.aux),
                        [u64::from(job.attempts + 1), 0],
                    );
                    continue;
                }
                job.attempts += 1;
                job.think = rto::local_wait(&policy, job.attempts - 1);
                ep.obs.emit(
                    EventKind::Retransmit,
                    u64::from(job.frame.aux),
                    [u64::from(job.attempts), 0],
                );
                // Re-dispatch through whatever endpoint routing now
                // prefers — the health tracker may have failed this one
                // over in the meantime.
                let (aux, deadline_us) = (u64::from(job.frame.aux), job.frame.deadline_us);
                let out = node.egress(job.frame.dest, None, &node.membership().view());
                let renow = node.now_us();
                let outcome = out.fwd.push(job, renow);
                let _ = node.note_push(out, outcome, aux, deadline_us, renow);
            } else {
                node.record_error(e);
            }
        }
    }
}

/// Per-node recovery thread: retransmits the put chunks whose
/// destination's retransmission timer expired (bounded by the retry
/// policy; each expiry backs the destination's timer off) and probes
/// `Down` endpoints at the configured interval so rerouted traffic can
/// return to the short path once a link recovers.
pub(crate) fn retry_sweeper_loop(node: &Arc<NtbNode>) {
    let policy = node.config().retry;
    let tick = (policy.min_rto / 4).clamp(Duration::from_millis(1), Duration::from_millis(50));
    let mut last_probe = Instant::now();
    loop {
        {
            crate::lockdep_track!(&crate::lockdep::NET_ADMIN);
            let mut guard = node.sweeper_lock.lock();
            if !node.is_shutdown() {
                // DEADLINE-CLIPPED: sweeper cadence (min_rto / 4);
                // `NtbNode::stop` notifies the condvar, so teardown ends
                // the wait at once instead of after the tick.
                node.sweeper_wake.wait_for(&mut guard, tick);
            }
        }
        if node.is_shutdown() {
            return;
        }
        if node.is_rejoining() || node.endpoints.iter().any(|e| e.port().is_dead()) {
            // Parked while the host is crashed or mid-rejoin; `restart()`
            // voids the retry ledger this loop would otherwise sweep.
            continue;
        }
        let now = Instant::now();
        for (id, put) in node.unacked.overdue(&node.rto, now, node.now_us()) {
            // Operation deadline expired (the next quiet reports
            // `DeadlineExceeded`: the caller's time budget was missed) or
            // retry budget spent (`LinkFailed`): abandon. An ack may have
            // landed since the overdue snapshot — then fail() is a no-op
            // and the put already resolved as acked, so no abandon is
            // recorded or emitted.
            let now_us = node.now_us();
            let expired = put.deadline_us != 0 && now_us > put.deadline_us;
            if expired || put.attempts > policy.max_retries {
                let shed = expired.then(|| node.egress(put.dest, None, &node.membership().view()));
                node.unacked.fail(id, expired, || {
                    if let Some(ep) = shed {
                        ep.obs.emit(
                            EventKind::DeadlineShed,
                            u64::from(id),
                            [u64::from(put.deadline_us), u64::from(now_us)],
                        );
                    }
                    // The abandon is this put's one resolution (checker
                    // invariant 1, put-resolution).
                    node.obs.emit(
                        EventKind::PutAbandon,
                        u64::from(id),
                        [u64::from(put.attempts), put.dest as u64],
                    );
                });
                continue;
            }
            // The timeout doubles the timer only if the transmission it
            // timed left this host.
            let doublings = put.doublings + u32::from(put.on_wire);
            if put.on_wire {
                node.rto.back_off(put.dest, doublings);
            }
            if node.unacked.note_attempt(id, Instant::now(), doublings).is_none() {
                continue; // acked while we looked
            }
            // Retry budget: when the link's bucket is dry the wire
            // transmission is shed, but the attempt above still counted —
            // abandonment stays bounded and quiet still terminates even
            // on a link whose budget never refills.
            let ep = node.egress(put.dest, None, &node.membership().view());
            if !ep.retry_budget.try_spend() {
                ep.obs.emit(EventKind::RetryShed, u64::from(id), [u64::from(put.attempts), 0]);
                node.unacked.note_unsent(id);
                continue;
            }
            node.obs.emit(EventKind::Retransmit, u64::from(id), [u64::from(put.attempts), 0]);
            // Retransmissions flush immediately: the chunk is already
            // overdue, so trading the doorbell batching for latency is
            // the right call.
            let sent = node.transmit_put(
                id,
                put.dest,
                put.heap_offset,
                &put.data,
                put.mode,
                false,
                put.deadline_us,
            );
            if sent.is_err() {
                node.unacked.note_unsent(id);
            }
        }
        if now.duration_since(last_probe) >= policy.probe_interval {
            last_probe = now;
            node.probe_down_links();
        }
    }
}
