//! Unified event-trace observability: per-PE ring-buffered event logs
//! and a metrics registry shared by every layer of the stack.
//!
//! The simulator, the interconnect protocol (`ntb-net`) and the
//! OpenSHMEM runtime (`shmem-core`) all emit [`TraceEvent`]s into one
//! [`EventLog`] per network. Each PE owns a fixed-capacity ring, so a
//! hot emitter can never grow memory without bound; a single global
//! atomic sequence number gives the merged trace a total order that the
//! protocol invariant checker (`ntb_net::checker`) replays offline.
//!
//! One spine: every protocol event is recorded by one [`Obs::emit`],
//! which bumps the event's counter in the PE's [`MetricsRegistry`] (see
//! [`LinkMetrics::counter`] for the one event → counter mapping) and
//! appends the event to the log while the log is enabled. No other code
//! writes a counter, so a complete trace and the counters always agree.
//!
//! Cost discipline: when tracing is off (the default), an emission costs
//! the counter's relaxed add (counted kinds only) plus one relaxed load
//! of the log's enable flag, so the layer stays compiled in without
//! shifting the latency figures.
//!
//! The registry also keeps per-op-kind latency histograms (log2
//! buckets); it exports as JSON and is rendered by `shmem-bench` reports.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

/// `link` value for events not scoped to a single link.
pub const NO_LINK: u16 = u16::MAX;

/// Add to a monotonic event counter.
fn bump(counter: &AtomicU64, n: u64) {
    // lint: relaxed-ok(monotonic counters; readers only need eventual totals)
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Read a monotonic event counter.
fn get(counter: &AtomicU64) -> u64 {
    // lint: relaxed-ok(monotonic counters; snapshots are advisory)
    counter.load(Ordering::Relaxed)
}

/// What happened. One flat namespace across the three layers so a merged
/// trace reads as a single timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    // --- ntb-sim: hardware-ish events -------------------------------
    /// A doorbell bit was rung toward the peer (`op_id` = bit;
    /// `payload[0]` = 1 if the injector dropped it).
    DoorbellSet,
    /// Doorbell bits were cleared at the receiver (`op_id` = mask).
    DoorbellClear,
    /// A scratchpad register was published (`op_id` = register index,
    /// `payload[0]` = value).
    SpadWrite,
    /// A DMA descriptor was queued (`op_id` = job id, `payload` =
    /// [dst_offset, len]).
    DmaSubmit,
    /// A DMA job copied its payload (`op_id` = job id).
    DmaComplete,
    /// A DMA job failed (`op_id` = job id).
    DmaFail,
    /// The emitting PE marked this link endpoint Down.
    LinkDown,
    /// The emitting PE restored this link endpoint to Up.
    LinkUp,
    /// A probe write toward a Down endpoint.
    ProbeTx,
    /// A PE's hardware was killed by fault injection (`op_id` = PE).
    NodeCrash,
    /// A PE's hardware was frozen (`op_id` = PE, `payload[0]` = hold µs).
    NodeFreeze,
    /// A frozen PE was released (`op_id` = PE).
    NodeThaw,
    /// A crashed PE was restarted and begins its rejoin (`op_id` = PE).
    NodeRestart,
    /// A link entered or left a gray-failure slow window (`op_id` =
    /// link, `payload[0]` = wire-time factor in permille; 1000 =
    /// recovered).
    PortSlow,
    /// A resource capacity was shrunk mid-run by the fault plan
    /// (`op_id` = target PE, `payload` = [new capacity, resource code:
    /// 0 = forward queue entries, 1 = host memory bytes]).
    CapacityShrink,

    // --- ntb-net: protocol events -----------------------------------
    /// A frame was dispatched by the service loop (`op_id` = frame aux,
    /// `payload` = [frame kind code, src]).
    FrameRx,
    /// A hop that is not the frame's destination admitted it to the
    /// onward forward queue (`op_id` = aux, `payload` = [src, dest]).
    FrameFwd,
    /// Payload checksum mismatch; frame dropped (`op_id` = aux).
    CrcReject,
    /// A put chunk was registered in the unacked table (`op_id` =
    /// put id, `payload` = [dest, len]).
    PutIssue,
    /// A put chunk send succeeded on `link` (`op_id` = put id).
    PutChunkTx,
    /// A put chunk was written into the target heap (`op_id` = put id,
    /// `payload` = [src, offset]).
    PutDeliver,
    /// The origin removed the put from the unacked table — the
    /// exactly-once resolution point (`op_id` = put id).
    PutAcked,
    /// The origin abandoned the put after exhausting retries (`op_id` =
    /// put id, `payload[0]` = attempts).
    PutAbandon,
    /// A PutAck frame arrived (`op_id` = put id). Duplicates appear
    /// here but not as `PutAcked`.
    AckRx,
    /// The sweeper, a wait loop or a forwarder re-sent something, or a
    /// barrier doorbell was re-rung (`op_id` = put/req id or frame aux,
    /// the doorbell bit for a barrier signal; `payload[0]` = attempt
    /// number).
    Retransmit,
    /// Traffic steered away from a Down preferred endpoint (`link` =
    /// the Down link avoided, `payload` = [chosen link, dest]).
    Reroute,
    /// A duplicate was suppressed (`op_id` = id, `payload[1]` = what:
    /// 0 a put delivery, 1 an ack, 2 a get-response chunk with
    /// `payload[0]` = its offset, 3 an AMO response; otherwise
    /// `payload[0]` = the sending pe).
    DupSuppressed,
    /// A transmit-ring slot's header was written, publishing its frame
    /// to the receiver (`op_id` = slot sequence number, `payload` =
    /// [payload len, slot index]).
    SlotPublish,
    /// The service loop consumed one transmit-ring slot (`op_id` = slot
    /// sequence number, `payload` = [sender pe, slot index]).
    SlotDrain,
    /// The in-order ring drain skipped a slot sequence number: its header
    /// never landed although a later one did, or its frame landed after
    /// the number was skipped and was dropped (`op_id` = slot sequence
    /// number, `payload` = [sender pe, slot index]).
    SlotSkip,
    /// A transmit-ring header changed between the receiver's read and its
    /// compare-and-swap clear; the slot is left for the next read
    /// (`op_id` = header word read, `payload` = [sender pe, slot index]).
    SlotReleaseMiss,
    /// A sender found its next transmit-ring slot still occupied (the
    /// ring was full) and waited for the receiver to consume it
    /// (`op_id` = slot sequence number being published, `payload` =
    /// [wait µs, slot index]).
    SlotFullWait,
    /// One coalesced doorbell covering a whole published batch (`op_id`
    /// = first slot sequence in the batch, `payload[0]` = slot count).
    DoorbellCoalesce,
    /// A get request was issued (`op_id` = req id, `payload` =
    /// [offset, len]).
    GetReqTx,
    /// The target served a get request from its symmetric space (`op_id`
    /// = req id, `payload` = [origin pe, len]).
    GetServe,
    /// A fresh get-response chunk filled part of the request (`op_id` =
    /// req id, `payload` = [chunk offset, chunk len]).
    GetChunkRx,
    /// The get completed (`op_id` = req id).
    GetDone,
    /// The get was abandoned (`op_id` = req id).
    GetAbandon,
    /// An AMO request was issued (`op_id` = req id, `payload` =
    /// [opcode, offset]).
    AmoReqTx,
    /// The target applied an AMO for the first time (`op_id` = req id,
    /// `payload` = [origin pe, old value]).
    AmoApply,
    /// The target replayed a cached AMO response (`op_id` = req id,
    /// `payload[0]` = origin pe).
    AmoReplay,
    /// The AMO's response reached the origin and completed it, logged
    /// before the requester can return the value (`op_id` = req id,
    /// `payload[0]` = responding pe).
    AmoDone,
    /// The AMO was abandoned at the origin (`op_id` = req id).
    AmoAbandon,
    /// The failure detector began suspecting a peer (`op_id` = current
    /// membership epoch, `payload` = [suspect pe, missed beats]).
    PeSuspect,
    /// A peer was confirmed dead (`op_id` = new membership epoch,
    /// `payload[0]` = dead pe).
    PeDead,
    /// A peer rejoined the membership (`op_id` = new membership epoch,
    /// `payload` = [rejoined pe, 1 if crash-restart else 0]).
    PeRejoin,
    /// The emitting PE adopted or originated a membership view (`op_id`
    /// = epoch, `payload[0]` = live bitmap).
    MembershipUpdate,
    /// A router/forwarder dropped a frame — destined to a known-dead PE
    /// or carrying an out-of-range src/dest (`op_id` = frame aux,
    /// `payload` = [dest, reason]: 1 = out-of-range header field, 2 =
    /// destination PE dead).
    RouterDrop,
    /// A forward job was admitted into a bounded queue (`op_id` = frame
    /// aux, `payload` = [occupancy after the push, capacity]). The
    /// checker's invariant 9 replays these: occupancy must never exceed
    /// the advertised capacity.
    QueueEnqueue,
    /// Work was shed at admission — queue full or credits exhausted
    /// (`op_id` = frame aux, `payload` = [occupancy, capacity]).
    OverloadShed,
    /// Already-expired work was dropped at a hop instead of being
    /// forwarded (`op_id` = frame aux, `payload` = [deadline µs,
    /// now µs]).
    DeadlineShed,
    /// A hop transmitted a deadline-carrying frame (`op_id` = frame
    /// aux, `payload` = [deadline µs, now µs]). The checker's
    /// invariant 10 replays these: now must not exceed the deadline.
    DeadlineTx,
    /// A retransmission was shed because the per-link retry budget ran
    /// dry (`op_id` = put/req id, `payload` = [attempt, 0]).
    RetryShed,
    /// The receiver advertised cumulative flow-control credits on this
    /// link (`payload` = [granted total, 0]).
    CreditGrant,
    /// The sender consumed one flow-control credit (`payload` =
    /// [consumed total, granted total at consume time]). Invariant 9's
    /// conservation half: consumed must never exceed granted.
    CreditConsume,
    /// A credit advertisement above `consumed + window`, which no
    /// receiver can have granted, was capped there (`payload` =
    /// [advertised total, cap]). Zero while both ledgers agree.
    CreditClip,

    // --- shmem-core: API-level events -------------------------------
    /// `shmem_put` entered (`op_id` = per-PE op counter, `payload` =
    /// [dest pe, len]).
    ApiPutIssue,
    /// `shmem_put` returned locally complete (`op_id` matches issue).
    ApiPutComplete,
    /// `shmem_get` entered (`op_id` = op counter, `payload` =
    /// [src pe, len]).
    ApiGetIssue,
    /// `shmem_get` returned with data (`op_id` matches issue).
    ApiGetComplete,
    /// An atomic entered (`op_id` = op counter, `payload` = [target
    /// pe, opcode]).
    ApiAmoIssue,
    /// The atomic returned (`op_id` matches issue).
    ApiAmoComplete,
    /// A PE entered `barrier_all` (`op_id` = per-PE barrier epoch).
    BarrierStart,
    /// One dissemination round finished (`op_id` = epoch,
    /// `payload[0]` = round).
    BarrierRound,
    /// A PE left `barrier_all` (`op_id` = epoch).
    BarrierEnd,
    /// A barrier wait ran out of budget (`op_id` = epoch, `payload` =
    /// [neighbour PE waited on, phase code]).
    BarrierStall,
    /// `shmem_quiet` entered (`op_id` = op counter).
    QuietStart,
    /// `shmem_quiet` returned (`op_id` matches, `payload[0]` = 1 on
    /// error).
    QuietEnd,
    /// `shmem_fence` was called (delegates to quiet).
    Fence,
}

impl EventKind {
    /// Stable lowercase name for dumps and JSON.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::DoorbellSet => "doorbell_set",
            EventKind::DoorbellClear => "doorbell_clear",
            EventKind::SpadWrite => "spad_write",
            EventKind::DmaSubmit => "dma_submit",
            EventKind::DmaComplete => "dma_complete",
            EventKind::DmaFail => "dma_fail",
            EventKind::LinkDown => "link_down",
            EventKind::LinkUp => "link_up",
            EventKind::ProbeTx => "probe_tx",
            EventKind::NodeCrash => "node_crash",
            EventKind::NodeFreeze => "node_freeze",
            EventKind::NodeThaw => "node_thaw",
            EventKind::NodeRestart => "node_restart",
            EventKind::PortSlow => "port_slow",
            EventKind::CapacityShrink => "capacity_shrink",
            EventKind::FrameRx => "frame_rx",
            EventKind::FrameFwd => "frame_fwd",
            EventKind::CrcReject => "crc_reject",
            EventKind::PutIssue => "put_issue",
            EventKind::PutChunkTx => "put_chunk_tx",
            EventKind::PutDeliver => "put_deliver",
            EventKind::PutAcked => "put_acked",
            EventKind::PutAbandon => "put_abandon",
            EventKind::AckRx => "ack_rx",
            EventKind::Retransmit => "retransmit",
            EventKind::Reroute => "reroute",
            EventKind::DupSuppressed => "dup_suppressed",
            EventKind::SlotPublish => "slot_publish",
            EventKind::SlotDrain => "slot_drain",
            EventKind::SlotSkip => "slot_skip",
            EventKind::SlotReleaseMiss => "slot_release_miss",
            EventKind::SlotFullWait => "slot_full_wait",
            EventKind::DoorbellCoalesce => "doorbell_coalesce",
            EventKind::GetReqTx => "get_req_tx",
            EventKind::GetServe => "get_serve",
            EventKind::GetChunkRx => "get_chunk_rx",
            EventKind::GetDone => "get_done",
            EventKind::GetAbandon => "get_abandon",
            EventKind::AmoReqTx => "amo_req_tx",
            EventKind::AmoApply => "amo_apply",
            EventKind::AmoReplay => "amo_replay",
            EventKind::AmoDone => "amo_done",
            EventKind::AmoAbandon => "amo_abandon",
            EventKind::PeSuspect => "pe_suspect",
            EventKind::PeDead => "pe_dead",
            EventKind::PeRejoin => "pe_rejoin",
            EventKind::MembershipUpdate => "membership_update",
            EventKind::RouterDrop => "router_drop",
            EventKind::QueueEnqueue => "queue_enqueue",
            EventKind::OverloadShed => "overload_shed",
            EventKind::DeadlineShed => "deadline_shed",
            EventKind::DeadlineTx => "deadline_tx",
            EventKind::RetryShed => "retry_shed",
            EventKind::CreditGrant => "credit_grant",
            EventKind::CreditConsume => "credit_consume",
            EventKind::CreditClip => "credit_clip",
            EventKind::ApiPutIssue => "api_put_issue",
            EventKind::ApiPutComplete => "api_put_complete",
            EventKind::ApiGetIssue => "api_get_issue",
            EventKind::ApiGetComplete => "api_get_complete",
            EventKind::ApiAmoIssue => "api_amo_issue",
            EventKind::ApiAmoComplete => "api_amo_complete",
            EventKind::BarrierStart => "barrier_start",
            EventKind::BarrierRound => "barrier_round",
            EventKind::BarrierEnd => "barrier_end",
            EventKind::BarrierStall => "barrier_stall",
            EventKind::QuietStart => "quiet_start",
            EventKind::QuietEnd => "quiet_end",
            EventKind::Fence => "fence",
        }
    }
}

/// One entry of the merged trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Position in the global total order (dense only per log).
    pub seq: u64,
    /// Microseconds since the log was created.
    pub t_us: u64,
    /// Emitting PE.
    pub pe: u16,
    /// Link index the event refers to, or [`NO_LINK`].
    pub link: u16,
    /// What happened.
    pub kind: EventKind,
    /// Protocol-level correlation id (put id, req id, epoch, ...); 0
    /// when not applicable.
    pub op_id: u64,
    /// Two kind-specific payload words (see [`EventKind`] docs).
    pub payload: [u64; 2],
}

impl TraceEvent {
    /// One-line human-readable rendering, used by trace dumps.
    pub fn render(&self) -> String {
        let link = if self.link == NO_LINK { "-".to_string() } else { self.link.to_string() };
        format!(
            "#{:<8} {:>10}us pe{:<3} link {:<3} {:<16} op {:<8} [{:#x}, {:#x}]",
            self.seq,
            self.t_us,
            self.pe,
            link,
            self.kind.name(),
            self.op_id,
            self.payload[0],
            self.payload[1],
        )
    }
}

struct PeRing {
    buf: VecDeque<TraceEvent>,
}

/// Shared, per-PE ring-buffered event log. Cheap to keep around
/// disabled; bounded when enabled.
pub struct EventLog {
    enabled: AtomicBool,
    seq: AtomicU64,
    dropped: AtomicU64,
    epoch: Instant,
    rings: Vec<Mutex<PeRing>>,
    capacity: usize,
}

/// Default per-PE ring capacity (events).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

impl EventLog {
    /// A log for `pes` PEs with `capacity` events buffered per PE.
    pub fn new(pes: usize, capacity: usize) -> Arc<EventLog> {
        let capacity = capacity.max(16);
        Arc::new(EventLog {
            enabled: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            epoch: Instant::now(),
            rings: (0..pes.max(1))
                .map(|_| Mutex::new(PeRing { buf: VecDeque::with_capacity(16) }))
                .collect(),
            capacity,
        })
    }

    /// Start recording.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Release);
    }

    /// Stop recording (already-buffered events stay).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Whether emissions are currently recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        // lint: relaxed-ok(advisory fast-path flag: a racing emit may miss the enabling
        // edge only; tests bracket enable/disable with barriers)
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record one event. A no-op (one relaxed load) while disabled.
    #[inline]
    pub fn emit(&self, pe: u16, link: u16, kind: EventKind, op_id: u64, payload: [u64; 2]) {
        if !self.is_enabled() {
            return;
        }
        self.emit_slow(pe, link, kind, op_id, payload);
    }

    #[cold]
    fn emit_slow(&self, pe: u16, link: u16, kind: EventKind, op_id: u64, payload: [u64; 2]) {
        let Some(ring) = self.rings.get(pe as usize) else {
            bump(&self.dropped, 1);
            return;
        };
        // lint: relaxed-ok(global sequence allocation; the merged trace orders by the
        // allocated value, not by this RMW's visibility)
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ev = TraceEvent {
            seq,
            t_us: self.epoch.elapsed().as_micros() as u64,
            pe,
            link,
            kind,
            op_id,
            payload,
        };
        let mut ring = ring.lock();
        if ring.buf.len() >= self.capacity {
            ring.buf.pop_front();
            bump(&self.dropped, 1);
        }
        ring.buf.push_back(ev);
    }

    /// Events evicted (ring overflow) or unattributable, so a checker
    /// can refuse to certify a truncated trace.
    pub fn dropped(&self) -> u64 {
        get(&self.dropped)
    }

    /// Copy out the merged trace, sorted by global sequence number.
    pub fn merged(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for ring in &self.rings {
            all.extend(ring.lock().buf.iter().copied());
        }
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Drain the merged trace, leaving every ring empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for ring in &self.rings {
            all.extend(ring.lock().buf.drain(..));
        }
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Buffered event count for one PE.
    pub fn pe_len(&self, pe: usize) -> usize {
        self.rings.get(pe).map_or(0, |r| r.lock().buf.len())
    }
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("enabled", &self.is_enabled())
            .field("pes", &self.rings.len())
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Render a trace window as text, one event per line.
pub fn render_events(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.render());
        out.push('\n');
    }
    out
}

/// Serialize a trace window as a JSON array (no external dependencies,
/// hence hand-rolled; every field is numeric or a fixed identifier).
pub fn events_to_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("[\n");
    for (i, ev) in events.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"seq\":{},\"t_us\":{},\"pe\":{},\"link\":{},\"kind\":\"{}\",\"op_id\":{},\"payload\":[{},{}]}}",
            ev.seq,
            ev.t_us,
            ev.pe,
            if ev.link == NO_LINK { -1i64 } else { ev.link as i64 },
            ev.kind.name(),
            ev.op_id,
            ev.payload[0],
            ev.payload[1],
        );
        out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Serialize a trace window in the Chrome trace-event format (a JSON
/// array of instant events) for Perfetto or `chrome://tracing`: `pid` is
/// the emitting PE, `tid` its link (-1 for node-scoped events), so each
/// PE gets its own process track with one thread per link.
pub fn events_to_chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{\"seq\":{},\"op_id\":{},\"payload\":[{},{}]}}}}",
            ev.kind.name(),
            ev.t_us,
            ev.pe,
            if ev.link == NO_LINK { -1i64 } else { ev.link as i64 },
            ev.seq,
            ev.op_id,
            ev.payload[0],
            ev.payload[1],
        );
    }
    out.push(']');
    out
}

/// A cheap, cloneable emission handle: an optional log and metrics
/// registry plus the fixed (pe, link) coordinates of the component
/// holding it. `Obs::off()` is the default everywhere, so standalone
/// ports and tests pay only an `Option` check per site.
#[derive(Clone, Default)]
pub struct Obs {
    sinks: Option<(Arc<EventLog>, Arc<MetricsRegistry>)>,
    pe: u16,
    link: u16,
}

impl Obs {
    /// A handle that never records.
    pub fn off() -> Obs {
        Obs { sinks: None, pe: 0, link: NO_LINK }
    }

    /// A handle bound to `pe` and `link` ([`NO_LINK`] for node-scoped
    /// events): it records into `log` and counts into the block of
    /// `metrics` for that link (the node block for [`NO_LINK`]).
    pub fn new(log: Arc<EventLog>, metrics: Arc<MetricsRegistry>, pe: usize, link: u16) -> Obs {
        Obs { sinks: Some((log, metrics)), pe: pe as u16, link }
    }

    /// The underlying log, if any.
    pub fn log(&self) -> Option<&Arc<EventLog>> {
        self.sinks.as_ref().map(|(log, _)| log)
    }

    /// Whether an emission right now would be recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.log().is_some_and(|l| l.is_enabled())
    }

    /// Record one event at this handle's (pe, link): bump its counter
    /// (always) and append it to the log (while the log is enabled).
    #[inline]
    pub fn emit(&self, kind: EventKind, op_id: u64, payload: [u64; 2]) {
        let Some((log, metrics)) = &self.sinks else {
            return;
        };
        if let Some(counter) = metrics.scope(self.link).and_then(|c| c.counter(kind)) {
            bump(counter, 1);
        }
        log.emit(self.pe, self.link, kind, op_id, payload);
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("attached", &self.sinks.is_some())
            .field("pe", &self.pe)
            .field("link", &self.link)
            .finish()
    }
}

// ---------------------------------------------------------------------
// Metrics registry: always-on counters and latency histograms.
// ---------------------------------------------------------------------

/// Histogram bucket count: bucket `i` covers `[2^i, 2^(i+1))` µs.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Lock-free log2-bucketed latency histogram (microseconds).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    fn bucket_index(us: u64) -> usize {
        (63 - us.max(1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Record one sample in microseconds.
    pub fn record(&self, us: u64) {
        bump(&self.buckets[Self::bucket_index(us)], 1);
        bump(&self.count, 1);
        bump(&self.sum_us, us);
        // lint: relaxed-ok(monotonic running maximum; readers tolerate staleness)
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        get(&self.count)
    }

    /// Sum of all samples (µs).
    pub fn sum_us(&self) -> u64 {
        get(&self.sum_us)
    }

    /// Largest sample (µs).
    pub fn max_us(&self) -> u64 {
        get(&self.max_us)
    }

    /// Mean sample (µs), 0.0 when empty.
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us() as f64 / n as f64
        }
    }

    /// Bucket upper bound (exclusive, µs) for quantile `q` in [0, 1]:
    /// the resolution is the log2 bucketing, good enough for reports.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((n as f64 * q).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += get(b);
            if seen >= target {
                return 1u64 << (i + 1).min(63);
            }
        }
        self.max_us()
    }

    /// JSON object for this histogram.
    pub fn to_json(&self) -> String {
        let nonzero: Vec<String> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let v = get(b);
                (v > 0).then(|| format!("[{i},{v}]"))
            })
            .collect();
        format!(
            "{{\"count\":{},\"sum_us\":{},\"mean_us\":{:.1},\"max_us\":{},\"p50_le_us\":{},\"p99_le_us\":{},\"log2_buckets\":[{}]}}",
            self.count(),
            self.sum_us(),
            self.mean_us(),
            self.max_us(),
            self.quantile_us(0.50),
            self.quantile_us(0.99),
            nonzero.join(",")
        )
    }
}

/// The operation classes the registry keeps histograms for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// `shmem_put` family.
    Put,
    /// `shmem_get` family.
    Get,
    /// Remote atomics.
    Amo,
    /// `shmem_barrier_all`.
    Barrier,
    /// `shmem_quiet` / `shmem_fence`.
    Quiet,
}

impl OpClass {
    /// Every class, in JSON/report order.
    pub const ALL: [OpClass; 5] =
        [OpClass::Put, OpClass::Get, OpClass::Amo, OpClass::Barrier, OpClass::Quiet];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Put => "put",
            OpClass::Get => "get",
            OpClass::Amo => "amo",
            OpClass::Barrier => "barrier",
            OpClass::Quiet => "quiet",
        }
    }

    fn index(self) -> usize {
        match self {
            OpClass::Put => 0,
            OpClass::Get => 1,
            OpClass::Amo => 2,
            OpClass::Barrier => 3,
            OpClass::Quiet => 4,
        }
    }
}

/// Declares [`LinkMetrics`] from one field list, so the struct, its
/// name/value listing and its sum never drift apart.
macro_rules! link_metrics {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// The event counters of one scope: a physical link of a PE, or
        /// the PE's node block for node-scoped events. Each field is fed
        /// only by [`Obs::emit`], through [`LinkMetrics::counter`]; the
        /// fields are public so readers can load them.
        #[derive(Debug, Default)]
        pub struct LinkMetrics {
            $($(#[$doc])* pub $field: AtomicU64,)*
        }

        impl LinkMetrics {
            /// Every counter by name, in declaration (and JSON) order.
            pub fn values(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), get(&self.$field)),)*]
            }

            /// Add `other`'s counts to these.
            fn absorb(&self, other: &LinkMetrics) {
                $(bump(&self.$field, get(&other.$field));)*
            }
        }
    };
}

link_metrics!(
    /// Frames published toward the peer (`SlotPublish`).
    frames_tx,
    /// Frames dispatched from the peer (`FrameRx`).
    frames_rx,
    /// Retransmissions and barrier doorbell re-rings (`Retransmit`).
    retransmits,
    /// Times traffic was steered away from this Down link (`Reroute`).
    reroutes,
    /// Frames rejected by the CRC check (`CrcReject`).
    crc_rejects,
    /// Frames the router discarded: out-of-range src/dest, or destined
    /// to a PE known to be dead (`RouterDrop`).
    router_drops,
    /// Work dropped because its deadline had already expired
    /// (`DeadlineShed`).
    deadline_sheds,
    /// Work rejected at admission: bounded queue full or flow-control
    /// credits exhausted (`OverloadShed`).
    overload_sheds,
    /// Retransmissions shed because the per-link retry budget ran dry
    /// (`RetryShed`).
    retry_sheds,
    /// Publishes that found the transmit ring full and waited for the
    /// receiver to free their slot (`SlotFullWait`).
    slot_full_waits,
    /// Frames admitted for the next hop at an intermediate host
    /// (`FrameFwd`).
    forwards,
    /// Put chunks delivered into the local symmetric space
    /// (`PutDeliver`).
    puts_delivered,
    /// Get requests served from the local symmetric space (`GetServe`).
    gets_served,
    /// Puts retired by their acknowledgement at this origin (`PutAcked`).
    acks_received,
    /// Atomics applied at this host (`AmoApply`).
    amos_served,
    /// Duplicate deliveries, acks, get chunks and AMO requests or
    /// responses suppressed (`DupSuppressed`, `AmoReplay`).
    duplicates_suppressed,
    /// Probe writes toward a Down endpoint (`ProbeTx`).
    probes_sent,
    /// Endpoint transitions into the Down state (`LinkDown`).
    link_down_events,
    /// Transmit-ring sequence numbers skipped by the in-order drain
    /// (`SlotSkip`); zero on a fault-free link.
    slot_skips,
    /// Transmit-ring headers that changed between the receiver's read
    /// and its clear (`SlotReleaseMiss`); zero on a fault-free link.
    slot_release_misses,
    /// Credit advertisements capped at `consumed + window`
    /// (`CreditClip`); zero while sender and receiver ledgers agree.
    credit_clips,
);

impl LinkMetrics {
    /// The counter `kind` feeds, if any. This match is the only place
    /// that says which event kind feeds which counter.
    pub fn counter(&self, kind: EventKind) -> Option<&AtomicU64> {
        Some(match kind {
            EventKind::SlotPublish => &self.frames_tx,
            EventKind::FrameRx => &self.frames_rx,
            EventKind::Retransmit => &self.retransmits,
            EventKind::Reroute => &self.reroutes,
            EventKind::CrcReject => &self.crc_rejects,
            EventKind::RouterDrop => &self.router_drops,
            EventKind::DeadlineShed => &self.deadline_sheds,
            EventKind::OverloadShed => &self.overload_sheds,
            EventKind::RetryShed => &self.retry_sheds,
            EventKind::SlotFullWait => &self.slot_full_waits,
            EventKind::FrameFwd => &self.forwards,
            EventKind::PutDeliver => &self.puts_delivered,
            EventKind::GetServe => &self.gets_served,
            EventKind::PutAcked => &self.acks_received,
            EventKind::AmoApply => &self.amos_served,
            EventKind::DupSuppressed | EventKind::AmoReplay => &self.duplicates_suppressed,
            EventKind::ProbeTx => &self.probes_sent,
            EventKind::LinkDown => &self.link_down_events,
            EventKind::SlotSkip => &self.slot_skips,
            EventKind::SlotReleaseMiss => &self.slot_release_misses,
            EventKind::CreditClip => &self.credit_clips,
            _ => return None,
        })
    }

    /// The counts a trace implies: every event replayed through
    /// [`Self::counter`]. Equals the live counters summed over PEs when
    /// the trace covers the whole run and its log dropped nothing.
    pub fn from_events(events: &[TraceEvent]) -> LinkMetrics {
        let counts = LinkMetrics::default();
        for ev in events {
            if let Some(c) = counts.counter(ev.kind) {
                bump(c, 1);
            }
        }
        counts
    }

    /// Sum of the recovery-path counters: zero on a fault-free run,
    /// nonzero once the retry machinery had to act.
    pub fn recovery_total(&self) -> u64 {
        [
            &self.retransmits,
            &self.crc_rejects,
            &self.reroutes,
            &self.duplicates_suppressed,
            &self.probes_sent,
            &self.link_down_events,
            &self.slot_skips,
            &self.slot_release_misses,
            &self.router_drops,
        ]
        .into_iter()
        .map(get)
        .sum()
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> =
            self.values().iter().map(|(name, v)| format!("\"{name}\":{v}")).collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// One PE's metrics: a latency histogram per [`OpClass`] and a
/// [`LinkMetrics`] block per link endpoint plus one for node-scoped
/// events. Always on; recording is a relaxed atomic add per counted
/// event.
#[derive(Debug)]
pub struct MetricsRegistry {
    ops: [LatencyHistogram; 5],
    links: Vec<LinkMetrics>,
    node: LinkMetrics,
}

impl MetricsRegistry {
    /// A registry for a PE with `links` link endpoints.
    pub fn new(links: usize) -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry {
            ops: std::array::from_fn(|_| LatencyHistogram::default()),
            links: (0..links).map(|_| LinkMetrics::default()).collect(),
            node: LinkMetrics::default(),
        })
    }

    /// The histogram for one op class.
    pub fn op(&self, class: OpClass) -> &LatencyHistogram {
        &self.ops[class.index()]
    }

    /// Record one op latency sample.
    pub fn record_op(&self, class: OpClass, us: u64) {
        self.op(class).record(us);
    }

    /// Counters for one link endpoint, if in range.
    pub fn link(&self, idx: usize) -> Option<&LinkMetrics> {
        self.links.get(idx)
    }

    /// Number of link endpoints tracked.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The block an emission at `link` counts into.
    fn scope(&self, link: u16) -> Option<&LinkMetrics> {
        if link == NO_LINK {
            Some(&self.node)
        } else {
            self.links.get(usize::from(link))
        }
    }

    /// Owned sum of the node block and every link block.
    pub fn total(&self) -> LinkMetrics {
        let sum = LinkMetrics::default();
        for block in self.links.iter().chain(std::iter::once(&self.node)) {
            sum.absorb(block);
        }
        sum
    }

    /// JSON object: `{"ops":{...},"links":[...],"node":{...}}`.
    pub fn to_json(&self) -> String {
        let ops: Vec<String> = OpClass::ALL
            .iter()
            .map(|c| format!("\"{}\":{}", c.name(), self.op(*c).to_json()))
            .collect();
        let links: Vec<String> = self.links.iter().map(|l| l.to_json()).collect();
        format!(
            "{{\"ops\":{{{}}},\"links\":[{}],\"node\":{}}}",
            ops.join(","),
            links.join(","),
            self.node.to_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let log = EventLog::new(2, 64);
        log.emit(0, 0, EventKind::DoorbellSet, 1, [0, 0]);
        assert!(log.merged().is_empty());
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn merged_trace_is_seq_sorted_across_pes() {
        let log = EventLog::new(3, 64);
        log.enable();
        for i in 0..30u64 {
            log.emit((i % 3) as u16, NO_LINK, EventKind::FrameRx, i, [i, 0]);
        }
        let all = log.merged();
        assert_eq!(all.len(), 30);
        assert!(all.windows(2).all(|w| w[0].seq < w[1].seq));
        // Per-PE rings hold only their own events.
        assert_eq!(log.pe_len(0), 10);
        // take() drains.
        assert_eq!(log.take().len(), 30);
        assert!(log.merged().is_empty());
    }

    #[test]
    fn ring_overflow_evicts_oldest_and_counts() {
        let log = EventLog::new(1, 16);
        log.enable();
        for i in 0..40u64 {
            log.emit(0, NO_LINK, EventKind::SpadWrite, i, [0, 0]);
        }
        let all = log.merged();
        assert_eq!(all.len(), 16);
        assert_eq!(log.dropped(), 24);
        assert_eq!(all.first().unwrap().op_id, 24, "oldest evicted first");
    }

    #[test]
    fn out_of_range_pe_is_dropped_not_panicked() {
        let log = EventLog::new(1, 16);
        log.enable();
        log.emit(7, NO_LINK, EventKind::FrameRx, 0, [0, 0]);
        assert!(log.merged().is_empty());
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn obs_handles_emit_at_their_coordinates() {
        let log = EventLog::new(2, 64);
        log.enable();
        let metrics = MetricsRegistry::new(4);
        let obs = Obs::new(Arc::clone(&log), Arc::clone(&metrics), 1, 0);
        obs.emit(EventKind::DoorbellSet, 5, [1, 2]);
        Obs::new(Arc::clone(&log), Arc::clone(&metrics), 1, 3).emit(EventKind::FrameFwd, 6, [0, 0]);
        Obs::new(Arc::clone(&log), metrics, 1, NO_LINK).emit(EventKind::QuietStart, 7, [0, 0]);
        let all = log.merged();
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|e| e.pe == 1));
        assert_eq!(all[0].link, 0);
        assert_eq!(all[1].link, 3);
        assert_eq!(all[2].link, NO_LINK);
        // Off handles stay silent and cheap.
        let off = Obs::off();
        assert!(!off.is_enabled());
        off.emit(EventKind::FrameRx, 0, [0, 0]);
        assert_eq!(log.merged().len(), 3);
    }

    #[test]
    fn emit_counts_into_its_scope_whether_or_not_the_log_records() {
        let log = EventLog::new(1, 64);
        let metrics = MetricsRegistry::new(2);
        let link1 = Obs::new(Arc::clone(&log), Arc::clone(&metrics), 0, 1);
        let node = Obs::new(Arc::clone(&log), Arc::clone(&metrics), 0, NO_LINK);
        link1.emit(EventKind::FrameRx, 0, [0, 0]); // log disabled: counted only
        log.enable();
        link1.emit(EventKind::FrameRx, 1, [0, 0]);
        link1.emit(EventKind::DoorbellSet, 2, [0, 0]); // uncounted kind
        node.emit(EventKind::Retransmit, 3, [1, 0]);
        node.emit(EventKind::AmoReplay, 4, [0, 0]);
        node.emit(EventKind::DupSuppressed, 5, [0, 0]);
        Obs::new(Arc::clone(&log), Arc::clone(&metrics), 0, 9).emit(EventKind::FrameRx, 6, [0, 0]);
        let ld = |c: &AtomicU64| c.load(Ordering::SeqCst);
        assert_eq!(ld(&metrics.link(1).unwrap().frames_rx), 2);
        assert_eq!(ld(&metrics.link(0).unwrap().frames_rx), 0);
        assert_eq!(ld(&metrics.node.retransmits), 1);
        assert_eq!(ld(&metrics.node.duplicates_suppressed), 2);
        let total = metrics.total();
        assert_eq!(ld(&total.frames_rx), 2, "out-of-range link is logged but not counted");
        assert_eq!(total.recovery_total(), 3);
        // The trace missed the emission made while the log was off.
        let replay = LinkMetrics::from_events(&log.merged());
        assert_eq!(ld(&replay.frames_rx), 2);
        assert_eq!(ld(&replay.retransmits), 1);
        assert_eq!(ld(&replay.duplicates_suppressed), 2);
    }

    #[test]
    fn render_and_json_cover_fields() {
        let log = EventLog::new(1, 16);
        log.enable();
        log.emit(0, 1, EventKind::PutAcked, 42, [7, 8]);
        log.emit(0, NO_LINK, EventKind::QuietEnd, 3, [0, 0]);
        let all = log.merged();
        let text = render_events(&all);
        assert!(text.contains("put_acked"), "{text}");
        assert!(text.contains("quiet_end"), "{text}");
        let json = events_to_json(&all);
        assert!(json.contains("\"kind\":\"put_acked\""), "{json}");
        assert!(json.contains("\"link\":-1"), "{json}");
        assert!(json.contains("\"op_id\":42"), "{json}");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        for us in [1u64, 1, 1, 1, 100, 100, 100, 10_000, 10_000, 1_000_000] {
            h.record(us);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.max_us(), 1_000_000);
        assert!((h.mean_us() - 102_030.3).abs() < 1.0);
        // p50 falls in the 100µs bucket [64, 128) -> upper bound 128.
        assert_eq!(h.quantile_us(0.5), 128);
        assert!(h.quantile_us(0.99) >= 1 << 19);
        let json = h.to_json();
        assert!(json.contains("\"count\":10"), "{json}");
        assert!(json.contains("log2_buckets"), "{json}");
    }

    #[test]
    fn zero_latency_sample_lands_in_first_bucket() {
        let h = LatencyHistogram::default();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_us(1.0), 2);
    }

    #[test]
    fn chrome_export_has_one_track_per_pe() {
        let log = EventLog::new(2, 16);
        log.enable();
        log.emit(0, 1, EventKind::SlotPublish, 4, [64, 0]);
        log.emit(1, NO_LINK, EventKind::PutDeliver, 4, [0, 128]);
        let json = events_to_chrome_json(&log.merged());
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"name\":\"slot_publish\""), "{json}");
        assert!(json.contains("\"pid\":0,\"tid\":1"), "{json}");
        assert!(json.contains("\"pid\":1,\"tid\":-1"), "{json}");
        assert_eq!(events_to_chrome_json(&[]), "[]");
    }

    #[test]
    fn registry_json_shape() {
        let log = EventLog::new(1, 16);
        let m = MetricsRegistry::new(2);
        m.record_op(OpClass::Put, 50);
        Obs::new(Arc::clone(&log), Arc::clone(&m), 0, 0).emit(EventKind::SlotPublish, 0, [0, 0]);
        Obs::new(Arc::clone(&log), Arc::clone(&m), 0, 0).emit(EventKind::OverloadShed, 0, [0, 0]);
        Obs::new(Arc::clone(&log), Arc::clone(&m), 0, 1).emit(EventKind::FrameRx, 0, [0, 0]);
        let json = m.to_json();
        assert!(json.contains("\"put\":{\"count\":1"), "{json}");
        assert!(json.contains("\"links\":[{\"frames_tx\":1"), "{json}");
        assert!(json.contains("\"deadline_sheds\":0"), "{json}");
        assert!(json.contains("\"overload_sheds\":1"), "{json}");
        assert!(json.contains("\"retry_sheds\":0"), "{json}");
        assert!(json.contains("\"node\":{\"frames_tx\":0"), "{json}");
        assert_eq!(m.link(0).unwrap().frames_tx.load(Ordering::Relaxed), 1);
        assert_eq!(m.link_count(), 2);
    }
}
