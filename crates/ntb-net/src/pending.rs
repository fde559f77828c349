//! Requester-side completion tracking.
//!
//! A Get (or remote atomic) leaves a pending entry at the requesting host;
//! the service thread fills it chunk by chunk as responses arrive and the
//! requester blocks until complete. The paper's prototype discovers
//! completion through a sleep-and-check loop, so under an enabled time
//! model the wait is quantized to
//! [`TimeModel::get_poll_interval`](ntb_sim::TimeModel) — the dominant
//! term of its Fig. 9(b) Get latencies.
//!
//! On a lossy link the response (or the request itself) can vanish, so the
//! wait is *bounded*: [`PendingOps::wait_with_retry_until`] re-issues the
//! request each time its destination's retransmission timer
//! ([`RtoTable`]) expires (same request id, so a duplicated response is
//! filtered by the per-entry chunk-offset set) and surfaces
//! [`NtbError::LinkFailed`] once the retry policy is exhausted — the
//! caller gets a typed error in bounded time instead of a hang.
//!
//! [`UnackedPuts`] tracks put chunks that have left this host but whose
//! delivery acknowledgement has not returned, keyed by put id so the
//! retry sweeper can retransmit exactly the overdue ones; `shmem_quiet`
//! (and therefore the barrier) drains it.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ntb_sim::{spin_for, NtbError, Result, TimeModel, TransferMode};
use parking_lot::{Condvar, Mutex};

use crate::rto::RtoTable;

#[derive(Debug)]
struct Entry {
    buf: Vec<u8>,
    received: u64,
    done: bool,
    /// Chunk offsets already deposited — duplicate responses (from request
    /// retransmission) must not double-count `received`.
    filled: HashSet<u64>,
    /// PE this request targets; [`PendingOps::fail_dest`] fails every
    /// entry aimed at a PE the failure detector declared dead.
    dest: usize,
    /// Set when the target PE died: the waiter returns this error instead
    /// of burning its whole retry budget against a corpse.
    failed: Option<NtbError>,
    /// When the request was registered (its round-trip sample starts).
    issued: Instant,
}

/// What became of a response chunk handed to [`PendingOps::fill_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillOutcome {
    /// Fresh chunk, deposited.
    Filled,
    /// A chunk at this offset was already deposited (retransmitted
    /// request → duplicated response); ignored.
    Duplicate,
    /// No such request id — the operation already completed or was
    /// abandoned; a late response straggler. Ignored.
    Stale,
}

/// Lock shards per completion table. Ids map to shards by `id %
/// SHARD_COUNT`, so the service threads of different links and the
/// requesting PE threads rarely contend on the same mutex; a batch of
/// coalesced acknowledgements drains across all shards instead of
/// serializing on one. Shards are never nested with each other (every
/// operation touches exactly the one shard its id hashes to), so a
/// single lockdep class per table stays cycle-free.
const SHARD_COUNT: usize = 8;

/// One lock shard of [`PendingOps`].
#[derive(Debug, Default)]
struct PendingShard {
    inner: Mutex<HashMap<u32, Entry>>,
    cond: Condvar,
}

/// Table of in-flight request-response operations (Gets and AMOs),
/// sharded by request id.
#[derive(Debug)]
pub struct PendingOps {
    shards: [PendingShard; SHARD_COUNT],
    next_id: AtomicU32,
}

impl Default for PendingOps {
    fn default() -> Self {
        Self::new()
    }
}

impl PendingOps {
    /// Empty table.
    pub fn new() -> Self {
        PendingOps {
            shards: std::array::from_fn(|_| PendingShard::default()),
            next_id: AtomicU32::new(0),
        }
    }

    /// The shard holding `id`'s entry.
    fn shard(&self, id: u32) -> &PendingShard {
        &self.shards[id as usize % SHARD_COUNT]
    }

    /// Reserve a fresh request id without creating a completion entry.
    /// Used by fast paths that complete synchronously (the aperture read)
    /// but still need a unique id so their trace events pair up under the
    /// same invariants as protocol-path requests.
    pub fn allocate_id(&self) -> u32 {
        // lint: relaxed-ok(unique id allocation; uniqueness needs atomicity, not ordering)
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Register a new operation expecting `total` response bytes from
    /// `dest`; returns its request id.
    pub fn register(&self, total: u64, dest: usize) -> u32 {
        let id = self.allocate_id();
        let entry = Entry {
            buf: vec![0u8; total as usize],
            received: 0,
            done: total == 0,
            filled: HashSet::new(),
            dest,
            failed: None,
            issued: Instant::now(),
        };
        crate::lockdep_track!(&crate::lockdep::NET_PENDING_SHARD);
        self.shard(id).inner.lock().insert(id, entry);
        id
    }

    /// Service-thread side: deposit a response chunk at `offset`. Marks
    /// the entry done once all bytes arrived and wakes the requester.
    /// Late (stale) and duplicated chunks are tolerated and reported in
    /// the outcome — both are expected under retransmission.
    ///
    /// `observe` runs *before* the completion becomes visible to the
    /// waiting requester (the entry lock is still held). Trace emission
    /// must go through this hook: emitting after the fill returns races
    /// the woken requester, which can log its completion event — or even
    /// have the whole trace drained — before the service thread logs the
    /// arrival that caused it (ntb-lint rule `emit-before-publish`).
    pub fn fill_with<F>(
        &self,
        req_id: u32,
        offset: u64,
        data: &[u8],
        observe: F,
    ) -> Result<FillOutcome>
    where
        F: FnOnce(FillOutcome),
    {
        let shard = self.shard(req_id);
        crate::lockdep_track!(&crate::lockdep::NET_PENDING_SHARD);
        let mut map = shard.inner.lock();
        let Some(entry) = map.get_mut(&req_id) else {
            observe(FillOutcome::Stale);
            return Ok(FillOutcome::Stale);
        };
        let end = offset as usize + data.len();
        if end > entry.buf.len() {
            return Err(NtbError::BadDescriptor {
                reason: "response chunk overflows request buffer",
            });
        }
        if !entry.filled.insert(offset) {
            observe(FillOutcome::Duplicate);
            return Ok(FillOutcome::Duplicate);
        }
        entry.buf[offset as usize..end].copy_from_slice(data);
        entry.received += data.len() as u64;
        observe(FillOutcome::Filled);
        if entry.received >= entry.buf.len() as u64 {
            entry.done = true;
            shard.cond.notify_all();
        }
        Ok(FillOutcome::Filled)
    }

    /// Abandon an operation (e.g. the request could not be sent); the
    /// entry is removed and late responses become [`FillOutcome::Stale`].
    pub fn abandon(&self, req_id: u32) {
        crate::lockdep_track!(&crate::lockdep::NET_PENDING_SHARD);
        self.shard(req_id).inner.lock().remove(&req_id);
    }

    /// Requester side: block until the operation completes and take its
    /// buffer. Each attempt waits out the destination's retransmission
    /// timer, then `resend` re-issues the request under the *same* id;
    /// [`NtbError::LinkFailed`] surfaces once `max_retries` resends did
    /// not complete it. Transient resend errors (link down) do not abort
    /// early; non-transient ones do. Every wait is clipped to
    /// `op_deadline`, past which [`NtbError::DeadlineExceeded`] surfaces
    /// *promptly* instead of after the rest of the retry schedule.
    pub fn wait_with_retry_until<F>(
        &self,
        req_id: u32,
        model: &TimeModel,
        rto: &RtoTable,
        op_deadline: Option<Instant>,
        mut resend: F,
    ) -> Result<Vec<u8>>
    where
        F: FnMut(u32) -> Result<()>,
    {
        let (dest, issued) = {
            crate::lockdep_track!(&crate::lockdep::NET_PENDING_SHARD);
            let map = self.shard(req_id).inner.lock();
            map.get(&req_id)
                .map(|e| (e.dest, e.issued))
                .ok_or(NtbError::BadDescriptor { reason: "unknown request id" })?
        };
        let mut attempt: u32 = 0;
        let (mut sent, mut doublings, mut on_wire) = (issued, 0, true);
        loop {
            let mut until = rto.deadline(dest, sent, doublings);
            if let Some(d) = op_deadline {
                until = until.min(d);
            }
            if let Some(buf) = self.wait_until(req_id, model, until)? {
                if attempt == 0 {
                    rto.sample(dest, issued.elapsed());
                }
                return Ok(buf);
            }
            if op_deadline.is_some_and(|d| Instant::now() >= d) {
                return self.abandon_unless_done(req_id, NtbError::DeadlineExceeded);
            }
            if rto.deadline(dest, sent, doublings) > Instant::now() {
                continue; // an ack or a response restarted the timer meanwhile
            }
            if attempt >= rto.policy().max_retries {
                return self
                    .abandon_unless_done(req_id, NtbError::LinkFailed { attempts: attempt + 1 });
            }
            if on_wire {
                doublings += 1;
                rto.back_off(dest, doublings);
            }
            attempt += 1;
            sent = Instant::now();
            on_wire = match resend(attempt) {
                Ok(()) => true,
                Err(e) if e.is_transient() => false,
                Err(e) => return self.abandon_unless_done(req_id, e),
            };
        }
    }

    /// Abandon `req_id` with `err` — unless its completion landed since
    /// the wait last looked, in which case the filled buffer is returned:
    /// a response whose fill was logged as completing the request must
    /// not then be reported as abandoned.
    fn abandon_unless_done(&self, req_id: u32, err: NtbError) -> Result<Vec<u8>> {
        crate::lockdep_track!(&crate::lockdep::NET_PENDING_SHARD);
        match self.shard(req_id).inner.lock().remove(&req_id) {
            Some(entry) if entry.done => Ok(entry.buf),
            _ => Err(err),
        }
    }

    /// Wait until done or `deadline`; `Ok(None)` means timed out with the
    /// entry still pending. With an enabled time model the wait polls at
    /// the model's get-poll interval (no wake-up notification —
    /// reproducing the prototype's sleep loop); otherwise it waits on the
    /// condvar.
    fn wait_until(
        &self,
        req_id: u32,
        model: &TimeModel,
        deadline: Instant,
    ) -> Result<Option<Vec<u8>>> {
        let shard = self.shard(req_id);
        if model.enabled() {
            let interval =
                model.scaled_duration(model.get_poll_interval).max(Duration::from_micros(1));
            loop {
                {
                    crate::lockdep_track!(&crate::lockdep::NET_PENDING_SHARD);
                    let mut map = shard.inner.lock();
                    match map.get(&req_id) {
                        None => {
                            return Err(NtbError::BadDescriptor { reason: "unknown request id" })
                        }
                        Some(e) if e.done => {
                            let entry = map.remove(&req_id).ok_or(NtbError::BadDescriptor {
                                reason: "completion entry vanished under its lock",
                            })?;
                            return Ok(Some(entry.buf));
                        }
                        Some(e) if e.failed.is_some() => {
                            let entry = map.remove(&req_id).ok_or(NtbError::BadDescriptor {
                                reason: "completion entry vanished under its lock",
                            })?;
                            return Err(entry.failed.unwrap_or(NtbError::LinkDown));
                        }
                        Some(_) => {}
                    }
                }
                if Instant::now() >= deadline {
                    return Ok(None);
                }
                // DEADLINE-CLIPPED: `interval` is the model's get-poll
                // quantum; the deadline is checked just above every poll.
                spin_for(interval);
            }
        } else {
            crate::lockdep_track!(&crate::lockdep::NET_PENDING_SHARD);
            let mut map = shard.inner.lock();
            loop {
                match map.get(&req_id) {
                    None => return Err(NtbError::BadDescriptor { reason: "unknown request id" }),
                    Some(e) if e.done => {
                        let entry = map.remove(&req_id).ok_or(NtbError::BadDescriptor {
                            reason: "completion entry vanished under its lock",
                        })?;
                        return Ok(Some(entry.buf));
                    }
                    Some(e) if e.failed.is_some() => {
                        let entry = map.remove(&req_id).ok_or(NtbError::BadDescriptor {
                            reason: "completion entry vanished under its lock",
                        })?;
                        return Err(entry.failed.unwrap_or(NtbError::LinkDown));
                    }
                    Some(_) => {
                        if shard.cond.wait_until(&mut map, deadline).timed_out() {
                            // Re-check once: completion may have raced the
                            // timeout.
                            if map.get(&req_id).is_some_and(|e| e.done) {
                                let entry = map.remove(&req_id).ok_or(NtbError::BadDescriptor {
                                    reason: "completion entry vanished under its lock",
                                })?;
                                return Ok(Some(entry.buf));
                            }
                            return Ok(None);
                        }
                    }
                }
            }
        }
    }

    /// Number of in-flight operations (diagnostics).
    pub fn in_flight(&self) -> usize {
        crate::lockdep_track!(&crate::lockdep::NET_PENDING_SHARD);
        self.shards.iter().map(|s| s.inner.lock().len()).sum()
    }

    /// Fail every incomplete operation targeting `pe` with `err` and wake
    /// its waiter. Called when the failure detector confirms `pe` dead:
    /// the waiter surfaces the typed error immediately instead of burning
    /// the retry budget against a host that will never respond. Returns
    /// how many operations were failed.
    pub fn fail_dest(&self, pe: usize, err: NtbError) -> usize {
        let mut failed = 0;
        for shard in &self.shards {
            crate::lockdep_track!(&crate::lockdep::NET_PENDING_SHARD);
            let mut map = shard.inner.lock();
            for entry in map.values_mut() {
                if entry.dest == pe && !entry.done && entry.failed.is_none() {
                    entry.failed = Some(err.clone());
                    failed += 1;
                }
            }
            if failed > 0 {
                shard.cond.notify_all();
            }
        }
        failed
    }

    /// Drop every entry (a restarting node's in-flight state is void; its
    /// requester threads were lost with the crash).
    pub fn reset(&self) {
        for shard in &self.shards {
            crate::lockdep_track!(&crate::lockdep::NET_PENDING_SHARD);
            shard.inner.lock().clear();
            shard.cond.notify_all();
        }
    }
}

/// One put chunk awaiting its delivery acknowledgement.
#[derive(Debug, Clone)]
pub struct UnackedPut {
    /// Final destination host.
    pub dest: usize,
    /// Symmetric-heap offset the chunk lands at.
    pub heap_offset: u32,
    /// The chunk bytes (kept for retransmission).
    pub data: Vec<u8>,
    /// Wire mode of the transfer.
    pub mode: TransferMode,
    /// Transmissions so far (1 after the initial send).
    pub attempts: u32,
    /// When the chunk was last (re)transmitted: its retransmission timer
    /// runs from here (see [`RtoTable::deadline`]).
    pub sent: Instant,
    /// Times the chunk's own timer has doubled: once per timeout of a
    /// transmission that left this host.
    pub doublings: u32,
    /// Whether the last transmission left this host (a send the link
    /// refused did not, and its timeout doubles nothing).
    pub on_wire: bool,
    /// Whether the doorbell rang with the put, so its ack times a round
    /// trip (a deferred doorbell waits for the caller's `quiet`).
    pub timed: bool,
    /// The *operation's* absolute deadline in microseconds since the
    /// network epoch (0 = none): once this expires the sweeper stops
    /// retransmitting entirely and fails the put as
    /// [`NtbError::DeadlineExceeded`].
    pub deadline_us: u32,
}

#[derive(Debug, Default)]
struct PutState {
    map: HashMap<u32, UnackedPut>,
    /// Attempt counts of puts abandoned since the last `quiet`; non-empty
    /// means the next quiet must report `LinkFailed`.
    failed: Vec<u32>,
    /// Set when a put was failed because its operation deadline expired;
    /// the next `quiet` reports `DeadlineExceeded` (outranking plain
    /// `LinkFailed` — the caller set a time budget and it was missed).
    expired: bool,
    /// Set when puts were abandoned because their destination PE died:
    /// `(pe, membership epoch)`. Outranks plain `LinkFailed` in the next
    /// `quiet` — "the host is dead" is strictly more information than
    /// "the link gave up".
    dead: Option<(usize, u64)>,
}

/// One lock shard of [`UnackedPuts`].
#[derive(Debug, Default)]
struct PutShard {
    state: Mutex<PutState>,
    cond: Condvar,
}

/// Put chunks awaiting their delivery acknowledgement, keyed by put id
/// and sharded by id (acks arriving in a coalesced batch drain across
/// shards instead of serializing against the issuing PE).
///
/// Replaces a bare counter so the retry sweeper can see *which* puts are
/// overdue, retransmit exactly those, and abandon them individually once
/// the retry budget is spent — at which point `quiet` reports the failure
/// instead of hanging forever on a count that will never reach zero.
#[derive(Debug)]
pub struct UnackedPuts {
    shards: [PutShard; SHARD_COUNT],
    next_id: AtomicU32,
    /// Entries across all shards, changed under the shard lock that
    /// inserts or removes them.
    outstanding: AtomicUsize,
}

impl Default for UnackedPuts {
    fn default() -> Self {
        Self::new()
    }
}

impl UnackedPuts {
    /// Empty table.
    pub fn new() -> Self {
        UnackedPuts {
            shards: std::array::from_fn(|_| PutShard::default()),
            // Start at 1: put id 0 is reserved for payload-free traffic.
            next_id: AtomicU32::new(1),
            outstanding: AtomicUsize::new(0),
        }
    }

    /// The shard holding `id`'s entry.
    fn shard(&self, id: u32) -> &PutShard {
        &self.shards[id as usize % SHARD_COUNT]
    }

    /// Record a chunk leaving this host at `sent` (`timed`: its doorbell
    /// rings with it, see [`UnackedPut::timed`]); returns its put id.
    #[allow(clippy::too_many_arguments)] // the entry's fields, one production call site
    pub fn register(
        &self,
        dest: usize,
        heap_offset: u32,
        data: Vec<u8>,
        mode: TransferMode,
        sent: Instant,
        timed: bool,
        deadline_us: u32,
    ) -> u32 {
        // lint: relaxed-ok(unique id allocation; uniqueness needs atomicity, not ordering)
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let put = UnackedPut {
            dest,
            heap_offset,
            data,
            mode,
            attempts: 1,
            sent,
            doublings: 0,
            on_wire: true,
            timed,
            deadline_us,
        };
        crate::lockdep_track!(&crate::lockdep::NET_UNACKED_SHARD);
        self.shard(id).state.lock().map.insert(id, put);
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        id
    }

    /// Note `n` entries removed from a shard (under its lock).
    fn retired(&self, n: usize) {
        self.outstanding.fetch_sub(n, Ordering::SeqCst);
    }

    /// Retire a chunk on acknowledgement and return it; `None` if the id
    /// was unknown (a duplicated ack from a retransmission — harmless).
    /// `observe` is
    /// invoked with the outcome *before* the retirement becomes visible
    /// to a waiting `quiet` (the shard lock is still held), like
    /// [`PendingOps::fill_with`]. Trace
    /// emission must go through this hook: emitting after `ack` returns
    /// races the woken `quiet`, whose caller can snapshot the trace
    /// before the resolution that released it is logged.
    pub fn ack_with(&self, id: u32, observe: impl FnOnce(bool)) -> Option<UnackedPut> {
        let shard = self.shard(id);
        crate::lockdep_track!(&crate::lockdep::NET_UNACKED_SHARD);
        let mut st = shard.state.lock();
        let put = st.map.remove(&id);
        if put.is_some() {
            self.retired(1);
        }
        observe(put.is_some());
        if st.map.is_empty() {
            shard.cond.notify_all();
        }
        put
    }

    /// Snapshot the entries whose retransmission timer has expired by
    /// `now`, or whose operation deadline has by `now_us` (for the
    /// sweeper).
    pub fn overdue(&self, rto: &RtoTable, now: Instant, now_us: u32) -> Vec<(u32, UnackedPut)> {
        crate::lockdep_track!(&crate::lockdep::NET_UNACKED_SHARD);
        self.shards
            .iter()
            .flat_map(|shard| {
                shard
                    .state
                    .lock()
                    .map
                    .iter()
                    .filter(|(_, p)| {
                        (p.deadline_us != 0 && now_us > p.deadline_us)
                            || rto.deadline(p.dest, p.sent, p.doublings) <= now
                    })
                    .map(|(&id, p)| (id, p.clone()))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Record a retransmission attempt at `sent`, its timer doubled
    /// `doublings` times; returns the new attempt count (`None` if the
    /// entry was acked in the meantime).
    pub fn note_attempt(&self, id: u32, sent: Instant, doublings: u32) -> Option<u32> {
        let shard = self.shard(id);
        crate::lockdep_track!(&crate::lockdep::NET_UNACKED_SHARD);
        let mut st = shard.state.lock();
        let put = st.map.get_mut(&id)?;
        put.attempts += 1;
        put.sent = sent;
        put.doublings = doublings;
        put.on_wire = true;
        Some(put.attempts)
    }

    /// The last transmission of `id` never left this host (the link
    /// refused it): its timeout will not double the timer.
    pub fn note_unsent(&self, id: u32) {
        crate::lockdep_track!(&crate::lockdep::NET_UNACKED_SHARD);
        if let Some(put) = self.shard(id).state.lock().map.get_mut(&id) {
            put.on_wire = false;
        }
    }

    /// Abandon a chunk whose retry budget is spent or, with `expired`,
    /// whose *operation deadline* passed. The failure is remembered and
    /// reported by the next [`Self::quiet`] (`DeadlineExceeded` for an
    /// expiry, else `LinkFailed`); `observe` runs under the shard lock,
    /// before a waiting `quiet` can see the retirement (see
    /// [`Self::ack_with`]). Returns `false` — recording nothing — when
    /// the chunk is no longer in the table: an ack can race the sweeper
    /// between its overdue snapshot and this call, and an acked put must
    /// not be reported as failed (nor abandoned twice in the trace).
    pub fn fail(&self, id: u32, expired: bool, observe: impl FnOnce()) -> bool {
        let shard = self.shard(id);
        crate::lockdep_track!(&crate::lockdep::NET_UNACKED_SHARD);
        let mut st = shard.state.lock();
        let known = match st.map.remove(&id) {
            Some(put) => {
                self.retired(1);
                if expired {
                    st.expired = true;
                } else {
                    st.failed.push(put.attempts);
                }
                observe();
                true
            }
            None => false,
        };
        if st.map.is_empty() {
            shard.cond.notify_all();
        }
        known
    }

    /// Current unacknowledged chunk count.
    pub fn current(&self) -> usize {
        self.outstanding.load(Ordering::SeqCst)
    }

    /// Block until every outstanding chunk is acknowledged or abandoned
    /// (`shmem_quiet`). Reports [`NtbError::LinkFailed`] — with the worst
    /// attempt count — if any chunk was abandoned since the last call,
    /// clearing the failure record.
    ///
    /// Shards are drained sequentially: quiet only promises completion of
    /// operations issued before it was called, and each of those lives in
    /// exactly one shard.
    pub fn quiet(&self) -> Result<()> {
        let mut worst: Option<u32> = None;
        let mut dead: Option<(usize, u64)> = None;
        let mut expired = false;
        for shard in &self.shards {
            crate::lockdep_track!(&crate::lockdep::NET_UNACKED_SHARD);
            let mut st = shard.state.lock();
            // BOUNDED-BY: the retry sweeper retires every unacked entry
            // (ack, expiry after the retry budget, or dest-failure sweep),
            // and each retirement signals this condvar.
            while !st.map.is_empty() {
                shard.cond.wait(&mut st);
            }
            if let Some(m) = st.failed.drain(..).max() {
                worst = Some(worst.map_or(m, |w| w.max(m)));
            }
            if st.expired {
                expired = true;
                st.expired = false;
            }
            if let Some(d) = st.dead.take() {
                dead = Some(dead.map_or(d, |w: (usize, u64)| if d.1 > w.1 { d } else { w }));
            }
        }
        // Precedence: "the host is dead" > "your time budget expired" >
        // "the link gave up" — each outranks strictly less specific news.
        match (dead, expired, worst) {
            (Some((pe, epoch)), _, _) => Err(NtbError::PeFailed { pe, epoch }),
            (None, true, _) => Err(NtbError::DeadlineExceeded),
            (None, false, Some(attempts)) => Err(NtbError::LinkFailed { attempts }),
            (None, false, None) => Ok(()),
        }
    }

    /// Abandon every unacked put destined for `pe` — the failure detector
    /// confirmed it dead at `epoch`, so no ack will ever come. `observe`
    /// runs per abandoned put id under its shard lock (see
    /// [`Self::ack_with`]). The next [`Self::quiet`] reports
    /// [`NtbError::PeFailed`].
    pub fn fail_dest(&self, pe: usize, epoch: u64, mut observe: impl FnMut(u32)) {
        for shard in &self.shards {
            crate::lockdep_track!(&crate::lockdep::NET_UNACKED_SHARD);
            let mut st = shard.state.lock();
            let doomed: Vec<u32> =
                st.map.iter().filter(|(_, p)| p.dest == pe).map(|(&id, _)| id).collect();
            if doomed.is_empty() {
                continue;
            }
            self.retired(doomed.len());
            for id in doomed {
                st.map.remove(&id);
                observe(id);
            }
            st.dead = Some((pe, epoch));
            if st.map.is_empty() {
                shard.cond.notify_all();
            }
        }
    }

    /// Drop every entry and failure record (a restarting node starts with
    /// a clean ledger).
    pub fn reset(&self) {
        for shard in &self.shards {
            crate::lockdep_track!(&crate::lockdep::NET_UNACKED_SHARD);
            let mut st = shard.state.lock();
            self.retired(st.map.len());
            st.map.clear();
            st.failed.clear();
            st.expired = false;
            st.dead = None;
            shard.cond.notify_all();
        }
    }

    /// Whether any puts have been abandoned and not yet reported.
    pub fn has_failures(&self) -> bool {
        crate::lockdep_track!(&crate::lockdep::NET_UNACKED_SHARD);
        self.shards.iter().any(|s| {
            let st = s.state.lock();
            !st.failed.is_empty() || st.expired || st.dead.is_some()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RetryPolicy;
    use std::sync::Arc;

    #[test]
    fn register_fill_wait() {
        let p = PendingOps::new();
        let id = p.register(8, 1);
        assert_eq!(p.fill_with(id, 0, &[1, 2, 3, 4], |_| {}).unwrap(), FillOutcome::Filled);
        assert_eq!(p.fill_with(id, 4, &[5, 6, 7, 8], |_| {}).unwrap(), FillOutcome::Filled);
        let buf = wait(&p, id, &TimeModel::zero()).unwrap();
        assert_eq!(buf, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(p.in_flight(), 0);
    }

    #[test]
    fn zero_length_completes_immediately() {
        let p = PendingOps::new();
        let id = p.register(0, 1);
        assert_eq!(wait(&p, id, &TimeModel::zero()).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn stale_fill_ignored_unknown_wait_errors() {
        let p = PendingOps::new();
        assert_eq!(p.fill_with(99, 0, &[1], |_| {}).unwrap(), FillOutcome::Stale);
        assert!(wait(&p, 99, &TimeModel::zero()).is_err());
    }

    #[test]
    fn duplicate_chunk_suppressed() {
        let p = PendingOps::new();
        let id = p.register(8, 1);
        assert_eq!(p.fill_with(id, 0, &[1, 2, 3, 4], |_| {}).unwrap(), FillOutcome::Filled);
        // Retransmitted response redelivers the same chunk with different
        // bytes; the first deposit wins and `received` is not double
        // counted (a double count would mark the entry done early).
        assert_eq!(p.fill_with(id, 0, &[9, 9, 9, 9], |_| {}).unwrap(), FillOutcome::Duplicate);
        assert_eq!(p.in_flight(), 1);
        assert_eq!(p.fill_with(id, 4, &[5, 6, 7, 8], |_| {}).unwrap(), FillOutcome::Filled);
        let buf = wait(&p, id, &TimeModel::zero()).unwrap();
        assert_eq!(buf, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn overflow_chunk_rejected() {
        let p = PendingOps::new();
        let id = p.register(4, 1);
        assert!(p.fill_with(id, 2, &[0u8; 4], |_| {}).is_err());
    }

    #[test]
    fn wait_blocks_until_fill_from_other_thread() {
        let p = Arc::new(PendingOps::new());
        let id = p.register(3, 1);
        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            p2.fill_with(id, 0, b"abc", |_| {}).unwrap();
        });
        let buf = wait(&p, id, &TimeModel::zero()).unwrap();
        assert_eq!(buf, b"abc");
        h.join().unwrap();
    }

    #[test]
    fn polled_wait_quantizes_latency() {
        // With an enabled model and a 5ms poll interval, even an instant
        // completion takes at least one interval to be observed if it
        // lands after the first check.
        let mut model = TimeModel::paper();
        model.get_poll_interval = Duration::from_millis(5);
        let p = Arc::new(PendingOps::new());
        let id = p.register(1, 1);
        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            p2.fill_with(id, 0, &[9], |_| {}).unwrap();
        });
        let t0 = std::time::Instant::now();
        let buf = wait(&p, id, &model).unwrap();
        assert_eq!(buf, vec![9]);
        assert!(t0.elapsed() >= Duration::from_millis(5), "quantized to poll interval");
        h.join().unwrap();
    }

    #[test]
    fn ids_unique() {
        let p = PendingOps::new();
        let a = p.register(1, 1);
        let b = p.register(1, 2);
        assert_ne!(a, b);
    }

    /// Wait for `id` under the default policy; the tests complete (or
    /// fail) the entry themselves.
    fn wait(p: &PendingOps, id: u32, model: &TimeModel) -> Result<Vec<u8>> {
        p.wait_with_retry_until(id, model, &timers(RetryPolicy::default()), None, |_| Ok(()))
    }

    fn tight_policy() -> RetryPolicy {
        RetryPolicy {
            min_rto: Duration::from_millis(10),
            max_rto: Duration::from_millis(14),
            max_retries: 2,
            ..RetryPolicy::default()
        }
    }

    fn timers(policy: RetryPolicy) -> RtoTable {
        RtoTable::new(policy, 4)
    }

    #[test]
    fn wait_with_retry_resends_then_completes() {
        let p = Arc::new(PendingOps::new());
        let id = p.register(2, 1);
        let resent = Arc::new(AtomicU32::new(0));
        let (p2, r2) = (Arc::clone(&p), Arc::clone(&resent));
        // "Network": completes the operation only after the first
        // retransmission arrives.
        let rto = timers(tight_policy());
        let buf = p.wait_with_retry_until(id, &TimeModel::zero(), &rto, None, |attempt| {
            r2.fetch_add(1, Ordering::Relaxed);
            assert!(attempt >= 1);
            p2.fill_with(id, 0, b"ok", |_| {}).map(|_| ())
        });
        assert_eq!(buf.unwrap(), b"ok");
        assert_eq!(resent.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn wait_with_retry_bounded_failure() {
        let p = PendingOps::new();
        let id = p.register(4, 1);
        let policy = tight_policy();
        let t0 = std::time::Instant::now();
        let rto = timers(policy);
        let err =
            p.wait_with_retry_until(id, &TimeModel::zero(), &rto, None, |_| Ok(())).unwrap_err();
        assert_eq!(err, NtbError::LinkFailed { attempts: 3 });
        assert!(t0.elapsed() <= policy.worst_case() + Duration::from_secs(1));
        // The entry is gone; stragglers become stale.
        assert_eq!(p.in_flight(), 0);
        assert_eq!(p.fill_with(id, 0, &[0u8; 4], |_| {}).unwrap(), FillOutcome::Stale);
    }

    #[test]
    fn wait_with_retry_transient_resend_errors_tolerated() {
        let p = Arc::new(PendingOps::new());
        let id = p.register(1, 1);
        let p2 = Arc::clone(&p);
        let rto = timers(tight_policy());
        let buf = p.wait_with_retry_until(id, &TimeModel::zero(), &rto, None, |attempt| {
            if attempt == 1 {
                Err(NtbError::LinkDown)
            } else {
                p2.fill_with(id, 0, &[7], |_| {}).map(|_| ())
            }
        });
        assert_eq!(buf.unwrap(), vec![7]);
    }

    #[test]
    fn wait_with_retry_until_surfaces_deadline_promptly() {
        // An op deadline far shorter than the retry schedule must clip
        // the wait: the caller gets DeadlineExceeded in roughly the
        // deadline, not after burning the full link-retry budget.
        let p = PendingOps::new();
        let id = p.register(4, 1);
        let policy = RetryPolicy::default();
        let t0 = std::time::Instant::now();
        let err = p
            .wait_with_retry_until(
                id,
                &TimeModel::zero(),
                &timers(policy),
                Some(std::time::Instant::now() + Duration::from_millis(20)),
                |_| Ok(()),
            )
            .unwrap_err();
        assert_eq!(err, NtbError::DeadlineExceeded);
        assert!(
            t0.elapsed() < policy.min_rto,
            "deadline must clip the first retry window, got {:?}",
            t0.elapsed()
        );
        // The entry is abandoned; stragglers become stale.
        assert_eq!(p.in_flight(), 0);
        assert_eq!(p.fill_with(id, 0, &[0u8; 4], |_| {}).unwrap(), FillOutcome::Stale);
    }

    #[test]
    fn wait_with_retry_until_completion_beats_deadline() {
        let p = Arc::new(PendingOps::new());
        let id = p.register(2, 1);
        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            p2.fill_with(id, 0, b"ok", |_| {}).unwrap();
        });
        let buf = p.wait_with_retry_until(
            id,
            &TimeModel::zero(),
            &timers(tight_policy()),
            Some(std::time::Instant::now() + Duration::from_secs(5)),
            |_| Ok(()),
        );
        assert_eq!(buf.unwrap(), b"ok");
        h.join().unwrap();
    }

    /// A response that completes the entry after the last wait looked is
    /// returned, not abandoned: its fill was already logged as the
    /// resolution.
    #[test]
    fn completion_landing_before_abandon_is_returned() {
        let p = PendingOps::new();
        let id = p.register(2, 1);
        let rto = timers(tight_policy());
        let buf = p.wait_with_retry_until(id, &TimeModel::zero(), &rto, None, |_| {
            p.fill_with(id, 0, b"ok", |_| {}).unwrap();
            Err(NtbError::BadDescriptor { reason: "resend failed after the response landed" })
        });
        assert_eq!(buf.unwrap(), b"ok");
        assert_eq!(p.in_flight(), 0);
    }

    #[test]
    fn allocate_id_never_collides_with_registered_ids() {
        let p = PendingOps::new();
        let a = p.allocate_id();
        let b = p.register(1, 1);
        let c = p.allocate_id();
        assert!(a != b && b != c && a != c);
        // The bare id has no entry: fills against it are stale.
        assert_eq!(p.fill_with(a, 0, &[1], |_| {}).unwrap(), FillOutcome::Stale);
    }

    fn put_entry(u: &UnackedPuts, sent: Instant) -> u32 {
        u.register(1, 0, vec![1, 2, 3], TransferMode::Dma, sent, true, 0)
    }

    #[test]
    fn unacked_puts_flow() {
        let u = UnackedPuts::new();
        let far = Instant::now() + Duration::from_secs(60);
        let a = put_entry(&u, far);
        let b = put_entry(&u, far);
        assert_ne!(a, b);
        assert_eq!(u.current(), 2);
        assert!(u.ack_with(a, |_| {}).is_some());
        assert!(u.ack_with(a, |_| {}).is_none(), "duplicate ack is harmless");
        assert!(u.ack_with(b, |_| {}).is_some());
        assert_eq!(u.current(), 0);
        u.quiet().unwrap();
    }

    #[test]
    fn quiet_blocks_until_acked() {
        let u = Arc::new(UnackedPuts::new());
        let id = put_entry(&u, Instant::now() + Duration::from_secs(60));
        let u2 = Arc::clone(&u);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            u2.ack_with(id, |_| {});
        });
        u.quiet().unwrap();
        assert_eq!(u.current(), 0);
        h.join().unwrap();
    }

    #[test]
    fn overdue_and_attempts() {
        let u = UnackedPuts::new();
        let ms = Duration::from_millis;
        let rto = timers(RetryPolicy { min_rto: ms(50), max_rto: ms(50), ..Default::default() });
        let now = Instant::now();
        let late = put_entry(&u, now - ms(60));
        let _fresh = put_entry(&u, now);
        let overdue = u.overdue(&rto, now, 0);
        assert_eq!(overdue.len(), 1);
        assert_eq!(overdue[0].0, late);
        assert_eq!(overdue[0].1.attempts, 1);
        assert_eq!(u.note_attempt(late, now, 1), Some(2));
        assert!(u.overdue(&rto, now, 0).is_empty(), "the retransmission restarted its timer");
        assert_eq!(u.note_attempt(9999, now, 1), None);
        // An expired operation deadline is due whatever its timer says.
        let expiring = u.register(1, 0, vec![1], TransferMode::Dma, now, true, 100);
        assert!(u.overdue(&rto, now, 100).is_empty());
        let due: Vec<u32> = u.overdue(&rto, now, 101).into_iter().map(|(id, _)| id).collect();
        assert_eq!(due, vec![expiring]);
    }

    #[test]
    fn failed_put_reported_by_quiet_then_cleared() {
        let u = UnackedPuts::new();
        let id = put_entry(&u, Instant::now());
        u.note_attempt(id, Instant::now(), 1);
        assert!(u.fail(id, false, || {}));
        assert!(u.has_failures());
        assert_eq!(u.quiet().unwrap_err(), NtbError::LinkFailed { attempts: 2 });
        u.quiet().expect("failure record cleared by the reporting quiet");
    }

    #[test]
    fn expired_put_reported_by_quiet_then_cleared() {
        let u = UnackedPuts::new();
        let id = put_entry(&u, Instant::now());
        assert!(u.fail(id, true, || {}));
        assert!(!u.fail(id, true, || {}), "already retired");
        assert!(u.has_failures());
        assert_eq!(u.quiet().unwrap_err(), NtbError::DeadlineExceeded);
        u.quiet().expect("expiry record cleared by the reporting quiet");
    }

    #[test]
    fn deadline_expiry_outranks_link_failure_in_quiet() {
        let u = UnackedPuts::new();
        let linky = put_entry(&u, Instant::now());
        let late = put_entry(&u, Instant::now());
        assert!(u.fail(linky, false, || {}));
        assert!(u.fail(late, true, || {}));
        assert_eq!(u.quiet().unwrap_err(), NtbError::DeadlineExceeded);
        // Failure record is consumed; the next quiet is clean.
        u.quiet().unwrap();
    }

    #[test]
    fn pending_fail_dest_wakes_waiter_with_typed_error() {
        let p = Arc::new(PendingOps::new());
        let id = p.register(4, 2);
        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            assert_eq!(p2.fail_dest(2, NtbError::PeFailed { pe: 2, epoch: 3 }), 1);
        });
        let err = wait(&p, id, &TimeModel::zero()).unwrap_err();
        assert_eq!(err, NtbError::PeFailed { pe: 2, epoch: 3 });
        h.join().unwrap();
        assert_eq!(p.in_flight(), 0, "failed entry removed on observation");
        // Entries aimed at other PEs are untouched.
        let live = p.register(1, 3);
        assert_eq!(p.fail_dest(2, NtbError::PeFailed { pe: 2, epoch: 3 }), 0);
        p.fill_with(live, 0, &[1], |_| {}).unwrap();
        assert_eq!(wait(&p, live, &TimeModel::zero()).unwrap(), vec![1]);
    }

    #[test]
    fn unacked_fail_dest_reports_pe_failed_over_link_failed() {
        let u = UnackedPuts::new();
        let now = Instant::now();
        let doomed = u.register(2, 0, vec![9], TransferMode::Dma, now, true, 0);
        let other = put_entry(&u, now); // dest 1
        assert!(u.fail(other, false, || {}), "plain link-budget abandonment");
        let mut abandoned = Vec::new();
        u.fail_dest(2, 5, |id| abandoned.push(id));
        assert_eq!(abandoned, vec![doomed]);
        assert_eq!(u.current(), 0);
        // Node death outranks the link failure in the combined report.
        assert_eq!(u.quiet().unwrap_err(), NtbError::PeFailed { pe: 2, epoch: 5 });
        u.quiet().expect("failure records consumed");
    }

    #[test]
    fn reset_clears_tables_and_failure_records() {
        let p = PendingOps::new();
        p.register(4, 1);
        p.reset();
        assert_eq!(p.in_flight(), 0);
        let u = UnackedPuts::new();
        let id = put_entry(&u, Instant::now());
        assert!(u.fail(id, false, || {}));
        u.fail_dest(1, 1, |_| {});
        u.reset();
        assert_eq!(u.current(), 0);
        assert!(!u.has_failures());
        u.quiet().unwrap();
    }

    #[test]
    fn fail_after_ack_records_nothing() {
        // The sweeper's overdue snapshot can race a landing ack: once the
        // put is acked, the late fail() must be a no-op — no failure
        // record, no LinkFailed from a quiet of puts that all completed.
        let u = UnackedPuts::new();
        let id = put_entry(&u, Instant::now());
        assert!(u.ack_with(id, |_| {}).is_some());
        assert!(!u.fail(id, false, || {}), "acked put must not be failable");
        assert!(!u.has_failures());
        u.quiet().expect("all puts acked; no stale failure record");
    }
}
