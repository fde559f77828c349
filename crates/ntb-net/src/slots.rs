//! The slot ring: every frame between two neighbours, in publish order,
//! with one doorbell per flushed batch.
//!
//! The paper's protocol stages a payload in the neighbour's window,
//! publishes `{src, dest, offset, size, kind}` and rings a doorbell. Here
//! every frame of a link direction rides one ring of slot records in the
//! peer's window; the ScratchPads only carry the bring-up handshake and
//! the heartbeat.
//!
//! * The window holds a **ring of slots** past the control slot (see
//!   [`WindowLayout`]): each slot is a 32-byte record (header word,
//!   length, offset, aux, sequence, deadline, CRC, one reserved word)
//!   plus a private payload lane. A sender publishes record + payload
//!   with plain window writes, keeping several frames in flight at once.
//! * A payload that fits the lane (`NetConfig::coalesce_payload_max`)
//!   travels in it. A bigger one is staged in a payload area, the direct
//!   area when the receiver is its destination and the bypass area when
//!   the receiver forwards it; the receiver finds it by the same two
//!   tests on the record's length and destination. Each area holds **one
//!   staged payload**: its record is flushed as soon as it is staged, and
//!   before staging into an area the sender waits for the slot of the
//!   area's previous record to clear.
//! * Headers are written **last and in batch** by [`TxSlotRing::flush`]:
//!   after the batch's payloads land (small ones by zero-copy PIO below
//!   the crossover threshold, large ones as one chained DMA submission
//!   with a single completion), every staged header is published and ONE
//!   `DB_DMAPUT` doorbell covers the whole batch.
//! * The receiver's service thread drains **all** pending slots per
//!   interrupt, zeroing each header as the per-slot acknowledgement; the
//!   sender polls a slot's header back to zero (a non-posted read)
//!   before reusing it, so flow control needs no reverse channel. An area
//!   payload is copied out, and its copy time paid, before its slot is
//!   released, so the next payload cannot overwrite it.
//!
//! **Ring depth.** The receiver drains only after its interrupt-service
//! wake (150 µs at paper timing), so the ring must hold what a sender
//! publishes in that time: about 2.5 µs per small frame without a stall,
//! some 60 frames, hence the default of 64 slots (`NetConfig::tx_slots`).
//! A ring that fills before the wake leaves the sender polling a slot
//! header across the link until the drain frees it; each such wait is
//! logged as `SlotFullWait` and counted in the link's `slot_full_waits`.
//!
//! **Delivery order.** Every slot record carries a monotonic slot
//! sequence number, and headers are written in sequence order (one flush
//! at a time, under the ring lock). The receiver ([`drain_in_order`])
//! hands frames on in that order, not in slot-index order: a batch that
//! wraps past the ring's last slot, or a header that lands while the
//! receiver is mid-scan, must not let a later frame overtake an earlier
//! one — `put_with_signal` relies on a signal never landing before its
//! data. The sender keeps the sequence dense: a slot's sequence number
//! is committed only once its record is written, and a flush that fails
//! part-way rolls the unwritten tail back so the next publish reuses it.
//! The receiver clears a header only if it still holds the value it read
//! ([`release_slot`], a compare-and-swap), so it can never clear a
//! header it has not seen. Both sides touch a header only with single
//! atomic word operations: a four-byte `memcpy` lands as two stores, and
//! a thread preempted between them either clears a header the sender
//! wrote in the meantime (a plain-store clear: the frame is lost) or
//! rewrites a header the receiver already consumed (a plain-store
//! publish: the frame is read twice).
//!
//! Loss tolerance: a swallowed doorbell is recovered by the sender's
//! bounded re-ring and the receiver's idle poll; a corrupted record or
//! payload, lane or area, fails the per-slot CRC (armed only when the
//! link has an active fault plan) and is consumed without dispatch,
//! leaving recovery to end-to-end retransmission. A gap in the
//! sequence — a corrupted record, or a header that a fault zeroed — is
//! passed over once a later header proves the missing one will never
//! land, so the ring never stalls behind it; the unacked-put ledger
//! provides exactly-once delivery across such losses. Publish order
//! therefore holds for the frames that arrive: a rejected frame comes
//! back by retransmission *behind* frames published after it.
//!
//! Each outcome is reported as itself: a CRC or decode failure as
//! `CrcReject`, a passed-over header that never landed (or a frame that
//! landed after its number was passed over) as `SlotSkip`, a header that
//! changed between the read and the clear as `SlotReleaseMiss`, each
//! each counted in its own `LinkMetrics` field. On a fault-free link the last two
//! stay at zero.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ntb_sim::{
    DmaRequest, EventKind, NtbError, NtbPort, Obs, Region, Result, TimeModel, TransferMode,
};
use parking_lot::{Mutex, MutexGuard};

use crate::config::NetConfig;
use crate::crc::crc32;
use crate::doorbells::DB_DMAPUT;
use crate::frame::Frame;
use crate::layout::WindowLayout;

/// Byte offset of the record body (everything after the header word).
const BODY_OFF: u64 = 4;
/// Record body length: len word, offset, aux, slot sequence, deadline,
/// CRC (the record's last word is reserved and never written).
const BODY_LEN: usize = 24;

/// One frame staged in the current batch: its header word is withheld
/// until [`TxSlotRing::flush`] publishes the whole batch.
#[derive(Debug, Clone, Copy)]
struct StagedSlot {
    idx: u32,
    header: u32,
    seq: u32,
    len: u32,
}

#[derive(Debug, Default)]
struct TxState {
    /// Monotonic slot sequence of the next publish; its slot is
    /// `slot_seq % ring_slots`. Rides the record, so the receiver drains
    /// in publish order and publish and drain events pair up in the
    /// trace.
    slot_seq: u32,
    /// Frames staged since the last flush, in publish order.
    staged: Vec<StagedSlot>,
    /// DMA descriptors accumulated for the batch's large payloads;
    /// submitted as one chain at flush time.
    dma_reqs: Vec<DmaRequest>,
    /// Sequence number of the last record whose payload was staged in the
    /// direct area (`[0]`) and in the bypass area (`[1]`).
    areas: [Option<u32>; 2],
}

/// A failed [`TxSlotRing::send`]: the error, and whether the frame's
/// header still landed in the peer's ring (the error came after it, such
/// as a refused doorbell ring), so the receiver consumes the frame anyway.
#[derive(Debug, PartialEq, Eq)]
pub struct SendFailure {
    pub error: NtbError,
    pub landed: bool,
}

/// The transmit side of one link direction's slot ring.
pub struct TxSlotRing {
    port: Arc<NtbPort>,
    /// The host on the other side: frames addressed to it stage oversized
    /// payloads in the direct area, all others in the bypass area.
    neighbor: usize,
    layout: WindowLayout,
    obs: Obs,
    model: Arc<TimeModel>,
    pio_crossover: u64,
    batch_cap: u32,
    abort: Option<Arc<AtomicBool>>,
    retry: Option<(Duration, u32)>,
    state: Mutex<TxState>,
}

impl TxSlotRing {
    /// Transmit ring of `port` toward host `neighbor`, publishing into
    /// the peer's window described by `layout`.
    pub fn new(
        port: Arc<NtbPort>,
        neighbor: usize,
        layout: WindowLayout,
        cfg: &NetConfig,
        model: Arc<TimeModel>,
        obs: Obs,
    ) -> Self {
        TxSlotRing {
            port,
            neighbor,
            layout,
            obs,
            model,
            pio_crossover: cfg.pio_crossover,
            batch_cap: cfg.batch_cap(),
            abort: None,
            retry: None,
            state: Mutex::new(TxState::default()),
        }
    }

    /// Install an abort flag: a publish blocked on an occupied slot fails
    /// with `DmaShutdown` once the flag is raised (network teardown).
    pub fn set_abort(&mut self, flag: Arc<AtomicBool>) {
        self.abort = Some(flag);
    }

    /// Bound the slot-free wait: after `timeout` the drain doorbell is
    /// re-rung (recovering a dropped interrupt), and after `max_rerings`
    /// such rounds the publish fails with [`NtbError::LinkFailed`].
    pub fn set_retry(&mut self, timeout: Duration, max_rerings: u32) {
        self.retry = Some((timeout, max_rerings));
    }

    /// Whether a payload of `len` bytes fits a slot's payload lane.
    pub fn fits(&self, len: usize) -> bool {
        len as u64 <= self.layout.ring_lane
    }

    /// Frames staged but not yet flushed (diagnostics and tests).
    pub fn staged(&self) -> usize {
        self.state.lock().staged.len()
    }

    /// Wait until slot `idx`'s header reads back zero (the receiver
    /// consumed its previous occupant). One atomic non-posted read per
    /// poll; bounded by the retry policy. Returns how long it waited when
    /// the first read found the slot occupied.
    ///
    /// A full-ring wait escalates instead of busy-spinning forever: a
    /// short pure spin catches the common sub-microsecond free, then the
    /// thread yields its core, then, with `park`, it parks for
    /// exponentially growing slices (capped at 64 µs) so a long-occupied
    /// slot costs interrupts, not a pegged core. A wait for a payload
    /// area does not park: it lasts one receiver wake plus one payload
    /// copy, and a park's timer slack (tens of µs) would add to every
    /// chunk of a bulk transfer.
    fn wait_slot_free(&self, idx: u32, park: bool) -> Result<Option<Duration>> {
        let off = self.layout.ring_slot_off(idx);
        let mut spins: u32 = 0;
        let wait_start = Instant::now();
        let mut round_start = wait_start;
        let mut rounds: u32 = 0;
        loop {
            if self.port.outgoing().read_u32(off, TransferMode::Memcpy)? == 0 {
                return Ok((spins > 0).then(|| wait_start.elapsed()));
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                if self.abort.as_ref().is_some_and(|f| f.load(std::sync::atomic::Ordering::SeqCst))
                {
                    return Err(NtbError::DmaShutdown);
                }
                if let Some((timeout, max_rerings)) = self.retry {
                    if round_start.elapsed() >= timeout {
                        if rounds >= max_rerings {
                            // RESOLVES(none): slot acquisition failed before
                            // the frame was staged — nothing was registered.
                            return Err(NtbError::LinkFailed { attempts: rounds + 1 });
                        }
                        rounds += 1;
                        round_start = Instant::now();
                        // The peer likely missed the interrupt for the
                        // batch occupying this slot; ring again. A down
                        // link rejects the ring — keep waiting, the
                        // retry budget bounds us.
                        let _ = self.port.ring_peer(DB_DMAPUT);
                    }
                }
            }
            if spins < 64 {
                std::hint::spin_loop();
            } else if spins < 512 || !park {
                std::thread::yield_now();
            } else {
                // 1, 2, 4 ... 64 µs parks; a pending unpark or timeout
                // both resume the poll, so correctness is unchanged.
                let exp = (spins - 512).min(6);
                // DEADLINE-CLIPPED: micro-park poll quantum; the re-ring
                // retry budget above bounds the whole wait.
                std::thread::park_timeout(Duration::from_micros(1 << exp));
            }
        }
    }

    /// A wait on a full ring: one `SlotFullWait` for publish `seq`
    /// (counted in the link's `slot_full_waits`).
    fn note_full_wait(&self, idx: u32, seq: u32, waited: Duration) {
        let us = u64::try_from(waited.as_micros()).unwrap_or(u64::MAX);
        self.obs.emit(EventKind::SlotFullWait, u64::from(seq), [us, u64::from(idx)]);
    }

    /// Make area `area` (0 direct, 1 bypass) free for a new payload: wait
    /// until the slot of the record that last staged a payload there is
    /// released. That record was flushed when it was published, so its
    /// header is out (or was rolled back and never lands). The wait runs
    /// with the ring unlocked, so frames to the lanes keep flowing
    /// meanwhile; it is over once the area's last record is still that
    /// slot's, or the ring has reused the slot (which needed it
    /// released).
    fn claim_area<'a>(
        &'a self,
        mut st: MutexGuard<'a, TxState>,
        area: usize,
    ) -> Result<MutexGuard<'a, TxState>> {
        while let Some(prev) = st.areas[area] {
            if st.slot_seq.wrapping_sub(prev) > self.layout.ring_slots {
                break;
            }
            drop(st);
            self.wait_slot_free(prev % self.layout.ring_slots, false)?;
            st = self.state.lock();
            if st.areas[area] == Some(prev) {
                break;
            }
        }
        Ok(st)
    }

    /// Stage `frame` (+ payload) into the next free ring slot and, with
    /// `flush`, publish the batch at once; without it the header word is
    /// withheld until [`flush`](Self::flush). The payload and record body
    /// are written now (large payloads join the batch's DMA chain).
    /// Auto-flushes first when the batch cap is reached. A payload too
    /// big for the lane is staged in the direct or bypass area, once
    /// the area's previous payload is consumed, and flushed at once. The
    /// slot's sequence number is committed only once every write
    /// succeeded, so a failed publish leaves no gap in the sequence. The
    /// ring lock is held through the flush, so a failure knows whether
    /// this frame's header landed.
    pub fn send(
        &self,
        mut frame: Frame,
        payload: Option<&[u8]>,
        flush: bool,
    ) -> std::result::Result<(), SendFailure> {
        let unsent = |error| SendFailure { error, landed: false };
        let data = payload.unwrap_or(&[]);
        crate::lockdep_track!(&crate::lockdep::NET_TXRING);
        let mut st = self.state.lock();
        // The payload area, if any: 0 direct, 1 bypass.
        let area = (!self.fits(data.len())).then(|| usize::from(frame.dest != self.neighbor));
        if let Some(area) = area {
            st = self.claim_area(st, area).map_err(unsent)?;
        }
        // After the claim, which may have let other frames in: the batch
        // never holds as many records as the ring has slots.
        if st.staged.len() as u32 >= self.batch_cap {
            self.flush_locked(&mut st).map_err(unsent)?;
        }
        let seq = st.slot_seq;
        let idx = seq % self.layout.ring_slots;
        if let Some(waited) = self.wait_slot_free(idx, true).map_err(unsent)? {
            self.note_full_wait(idx, seq, waited);
        }
        frame.seq = seq as u16;
        let words = frame.encode();
        let mut dma = None;
        if !data.is_empty() {
            let dst = match area {
                None => self.layout.ring_lane_off(idx),
                Some(area) => self.layout.area_offset(area == 0),
            };
            if frame.mode == TransferMode::Memcpy || data.len() as u64 <= self.pio_crossover {
                // Zero-copy PIO fast path: below the crossover a CPU
                // store beats paying DMA setup (paper Fig. 9).
                self.port.pio_write(dst, data).map_err(unsent)?;
            } else {
                let staging = Region::anonymous(data.len() as u64);
                staging.write(0, data).map_err(unsent)?;
                self.model.delay(self.model.local_copy_time(data.len() as u64));
                dma = Some(DmaRequest {
                    src: staging,
                    src_offset: 0,
                    dst_offset: dst,
                    len: data.len() as u64,
                });
            }
        }
        let mut body = [0u8; BODY_LEN];
        body[0..4].copy_from_slice(&words[1].to_le_bytes());
        body[4..8].copy_from_slice(&words[2].to_le_bytes());
        body[8..12].copy_from_slice(&words[3].to_le_bytes());
        body[12..16].copy_from_slice(&seq.to_le_bytes());
        body[16..20].copy_from_slice(&frame.deadline_us.to_le_bytes());
        // Per-slot integrity word, armed only on links with an active
        // fault plan. Covers the header word too — it is written
        // separately at flush time, and a corrupted header that still
        // decodes would otherwise dispatch a frame with garbage routing
        // fields — and the payload, in the lane or in an area.
        if self.port.outgoing().faults().is_active() {
            let mut crc = slot_crc(words[0], &body);
            if !data.is_empty() {
                crc ^= crc32(data);
            }
            body[20..24].copy_from_slice(&crc.to_le_bytes());
        }
        // Through the port's vitals gate: a frozen host's publish stalls
        // here, before any of its record lands.
        self.port.pio_write(self.layout.ring_slot_off(idx) + BODY_OFF, &body).map_err(unsent)?;
        // Commit: from here on the slot belongs to the batch.
        st.dma_reqs.extend(dma);
        st.slot_seq = seq.wrapping_add(1);
        st.staged.push(StagedSlot { idx, header: words[0], seq, len: data.len() as u32 });
        if let Some(area) = area {
            // An area holds one payload, so nothing can batch behind this
            // one: publish it at once.
            st.areas[area] = Some(seq);
        }
        if flush || area.is_some() {
            // A failed flush rolls the sequence back to its first unwritten
            // header: this one landed iff the sequence still runs past it.
            self.flush_locked(&mut st).map_err(|error| SendFailure {
                error,
                landed: st.slot_seq.wrapping_sub(seq).wrapping_sub(1) < self.layout.ring_slots,
            })?;
        }
        Ok(())
    }

    /// Publish the staged batch: submit the accumulated DMA chain (one
    /// completion for every large payload), then write every header word
    /// in sequence order, then ring ONE doorbell. A header that could not
    /// be written stays zero, and it and every later staged slot are
    /// rolled back: their frames are dropped (end-to-end retransmission
    /// recovers them) and the next publish reuses their sequence numbers,
    /// so the receiver never waits on a slot that will not be published.
    pub fn flush(&self) -> Result<()> {
        crate::lockdep_track!(&crate::lockdep::NET_TXRING);
        let mut st = self.state.lock();
        self.flush_locked(&mut st)
    }

    fn flush_locked(&self, st: &mut TxState) -> Result<()> {
        if st.staged.is_empty() {
            st.dma_reqs.clear();
            return Ok(());
        }
        let staged = std::mem::take(&mut st.staged);
        let reqs = std::mem::take(&mut st.dma_reqs);
        if !reqs.is_empty() {
            if let Err(e) = self.port.dma_transfer_chain(reqs) {
                // No header was written: every staged slot still reads
                // zero at the receiver and is reused by the next publish.
                st.slot_seq = st.slot_seq.wrapping_sub(staged.len() as u32);
                return Err(e);
            }
        }
        let first = staged[0].seq;
        let mut written: u32 = 0;
        let mut err: Option<NtbError> = None;
        for s in &staged {
            // One atomic store: a header landing as two stores could be
            // rewritten after the receiver consumed and cleared it.
            match self.port.outgoing().write_u32(
                self.layout.ring_slot_off(s.idx),
                s.header,
                TransferMode::Memcpy,
            ) {
                Ok(()) => {
                    written += 1;
                    self.obs.emit(
                        EventKind::SlotPublish,
                        u64::from(s.seq),
                        [u64::from(s.len), u64::from(s.idx)],
                    );
                }
                Err(e) => {
                    // Roll the unwritten tail back; the already-published
                    // prefix still needs its doorbell below.
                    st.slot_seq = st.slot_seq.wrapping_sub(staged.len() as u32 - written);
                    err = Some(e);
                    break;
                }
            }
        }
        if written > 0 {
            // Logged before the ring wakes the receiver: once a frame's
            // effect is visible (a get or an AMO returns), the trace
            // already holds the doorbell that announced it.
            self.obs.emit(EventKind::DoorbellCoalesce, u64::from(first), [u64::from(written), 0]);
            // Published frames without a ring are still recovered by the
            // receiver's idle poll and the sender's re-ring.
            if let Err(e) = self.port.ring_peer(DB_DMAPUT) {
                err = err.or(Some(e));
            }
        }
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for TxSlotRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxSlotRing")
            .field("slots", &self.layout.ring_slots)
            .field("staged", &self.staged())
            .finish()
    }
}

/// One successfully decoded ring slot on the receive side.
#[derive(Debug)]
pub struct DrainedSlot {
    /// The decoded frame.
    pub frame: Frame,
    /// Payload copied out of the lane or area (`None` for payload-free
    /// kinds).
    pub payload: Option<Vec<u8>>,
    /// Slot index the frame occupied.
    pub slot_idx: u32,
    /// The sender's slot sequence number (pairs publish with drain in
    /// the trace).
    pub slot_seq: u32,
    /// The header word as read (see [`release_slot`]).
    pub header: u32,
}

/// What the receiver found in one ring slot.
#[derive(Debug)]
pub enum SlotRead {
    /// Header is zero: nothing published (or already consumed).
    Empty,
    /// Header (the word read) non-zero but the record failed to decode or
    /// its CRC did not match; the slot must be consumed without dispatch.
    Corrupt(u32),
    /// A complete frame.
    Frame(DrainedSlot),
}

/// Read ring slot `idx` from the incoming `region` of host `me`. Does
/// not consume the slot — the caller clears the header (see
/// [`release_slot`]) after copying what it needs. A payload longer than
/// a lane is read from the area the sender staged it in: the direct area
/// when `me` is its destination, the bypass area otherwise.
pub fn read_slot(
    region: &Region,
    layout: &WindowLayout,
    me: usize,
    idx: u32,
    check_crc: bool,
) -> Result<SlotRead> {
    let off = layout.ring_slot_off(idx);
    let header = region.load_u32(off)?;
    if header == 0 {
        return Ok(SlotRead::Empty);
    }
    let body = region.read_vec(off + BODY_OFF, BODY_LEN as u64)?;
    let word = |i: usize| {
        u32::from_le_bytes(body[i * 4..i * 4 + 4].try_into().unwrap_or([0; 4]))
        // lint: unwrap-ok(read_vec returned exactly BODY_LEN bytes; slices are 4-aligned)
    };
    let (len_w, offset_w, aux_w, slot_seq, deadline_us, stored_crc) =
        (word(0), word(1), word(2), word(3), word(4), word(5));
    let Some(frame) = Frame::decode([header, len_w, offset_w, aux_w]) else {
        return Ok(SlotRead::Corrupt(header));
    };
    let frame = frame.with_deadline_us(deadline_us);
    let payload = if frame.kind.has_payload() && frame.len > 0 {
        let (src, cap) = if u64::from(frame.len) <= layout.ring_lane {
            (layout.ring_lane_off(idx), layout.ring_lane)
        } else {
            let direct = frame.dest == me;
            (layout.area_offset(direct), layout.area_len(direct))
        };
        if u64::from(frame.len) > cap {
            // A corrupted length must not trigger an out-of-bounds read;
            // treat it like any other integrity failure.
            return Ok(SlotRead::Corrupt(header));
        }
        Some(region.read_vec(src, u64::from(frame.len))?)
    } else {
        None
    };
    if check_crc {
        let mut crc = slot_crc(header, &body);
        if let Some(data) = &payload {
            if !data.is_empty() {
                crc ^= crc32(data);
            }
        }
        if crc != stored_crc {
            return Ok(SlotRead::Corrupt(header));
        }
    }
    Ok(SlotRead::Frame(DrainedSlot { frame, payload, slot_idx: idx, slot_seq, header }))
}

/// CRC over a slot record: the header word plus the first 20 body bytes
/// (length, offset, aux, slot sequence, deadline). The payload CRC is
/// XORed on top by the callers.
fn slot_crc(header: u32, body: &[u8]) -> u32 {
    let mut record = [0u8; 24];
    record[0..4].copy_from_slice(&header.to_le_bytes());
    record[4..24].copy_from_slice(&body[0..20]);
    crc32(&record)
}

/// Consume ring slot `idx`, freeing it for the sender's next wraparound:
/// clear its header only if it still holds `header`, the word that was
/// read, so the receiver can never clear a header it has not seen.
/// `Ok(false)` when the header changed (the slot is left for the next
/// read).
pub fn release_slot(region: &Region, layout: &WindowLayout, idx: u32, header: u32) -> Result<bool> {
    region.compare_exchange_u32(layout.ring_slot_off(idx), header, 0)
}

/// The receive side of one ring, as [`drain_in_order`] sees it: read a
/// slot, release a slot. [`RegionSlots`] is the real one; tests wrap it
/// to interleave sender activity with the receiver's scan.
pub trait SlotSource {
    /// Slots in the ring.
    fn ring_slots(&self) -> u32;
    /// Read slot `idx` without consuming it (see [`read_slot`]).
    fn read(&self, idx: u32) -> Result<SlotRead>;
    /// Consume slot `idx` if it still holds `header` (see
    /// [`release_slot`]).
    fn release(&self, idx: u32, header: u32) -> Result<bool>;
}

/// A ring in the receiver's own incoming window region.
#[derive(Debug, Clone, Copy)]
pub struct RegionSlots<'a> {
    /// The incoming window region holding the ring.
    pub region: &'a Region,
    /// Where the ring sits in the window.
    pub layout: &'a WindowLayout,
    /// The receiving host: payloads addressed to it sit in the direct
    /// area, all others in the bypass area.
    pub me: usize,
    /// Verify the per-slot CRC (links with an active fault plan).
    pub check_crc: bool,
    /// Charges `window_copy_time` for an area payload when it is read,
    /// before its slot is released: the area's next payload cannot
    /// overlap the copy out of it.
    pub model: &'a TimeModel,
}

impl SlotSource for RegionSlots<'_> {
    fn ring_slots(&self) -> u32 {
        self.layout.ring_slots
    }

    fn read(&self, idx: u32) -> Result<SlotRead> {
        let read = read_slot(self.region, self.layout, self.me, idx, self.check_crc)?;
        if let SlotRead::Frame(DrainedSlot { payload: Some(data), .. }) = &read {
            if data.len() as u64 > self.layout.ring_lane {
                self.model.delay(self.model.window_copy_time(data.len() as u64));
            }
        }
        Ok(read)
    }

    fn release(&self, idx: u32, header: u32) -> Result<bool> {
        release_slot(self.region, self.layout, idx, header)
    }
}

/// What [`drain_in_order`] hands on, in delivery order.
#[derive(Debug)]
pub enum Drained {
    /// The next frame in publish order; its slot is already consumed.
    Frame(DrainedSlot),
    /// Slot `idx` was consumed without dispatch: its record failed to
    /// decode or its CRC. Recovery is end to end.
    Rejected {
        /// The slot.
        idx: u32,
        /// The header word as read (it may itself be the corrupted
        /// word).
        header: u32,
    },
    /// Sequence number `seq` (slot `idx`) was skipped: its header never
    /// landed although a later one did, or its frame landed only after
    /// the number was skipped and was dropped. Recovery is end to end; on
    /// a fault-free link this never happens.
    Skipped {
        /// The skipped slot sequence number.
        seq: u32,
        /// The slot it maps to.
        idx: u32,
    },
    /// Slot `idx`'s header changed between the read and the clear, so it
    /// was left for the next read. On a fault-free link this never
    /// happens.
    ReleaseMiss {
        /// The slot.
        idx: u32,
        /// The header word that was read.
        header: u32,
    },
}

/// The receiver's position in one ring, kept across drains by the one
/// thread that drains it.
#[derive(Debug, Default)]
pub struct RxCursor {
    /// The sequence number the receiver expects next.
    pub next: u32,
    /// Slots consumed as corrupt that `next` has not reached yet. A
    /// corrupt record's own sequence word cannot be trusted, so its slot
    /// stands in for it: when `next` maps to such a slot and nothing was
    /// published there, the number is passed over as already rejected.
    corrupt: Vec<u32>,
}

/// Consume every published slot of one ring and hand the frames to
/// `deliver` in **publish order**, advancing `cursor` past each one.
///
/// Each pass consumes every published slot as it reads it (freeing it
/// for the sender at once) and holds the frames; held frames are handed
/// on in sequence order, each only once every earlier sequence number is
/// accounted for. When the lowest held frame is ahead of `cursor.next`,
/// the missing slot is read again: headers are written in sequence
/// order, so if the missing frame was published at all it is visible now
/// (it landed while the pass was scanning). If it is still missing it
/// was rejected as corrupt (then it was reported already), or it never
/// will land and it is [`Drained::Skipped`], so the ring stays live. A
/// frame behind `cursor.next` cannot be handed on in order and is
/// skipped too. Neither skip can happen on a fault-free link.
pub fn drain_in_order<S: SlotSource>(
    src: &S,
    cursor: &mut RxCursor,
    mut deliver: impl FnMut(Drained),
) -> Result<()> {
    let n = src.ring_slots();
    let mut held: Vec<DrainedSlot> = Vec::new();
    loop {
        let mut progressed = false;
        for idx in 0..n {
            match take_slot(src, idx, &mut deliver)? {
                Some(Ok(f)) => held.push(f),
                Some(Err(idx)) => {
                    if !cursor.corrupt.contains(&idx) {
                        cursor.corrupt.push(idx);
                    }
                }
                None => continue,
            }
            progressed = true;
        }
        while !held.is_empty() {
            let next = cursor.next;
            if let Some(pos) = held.iter().position(|f| f.slot_seq == next) {
                cursor.next = next.wrapping_add(1);
                deliver(Drained::Frame(held.swap_remove(pos)));
                continue;
            }
            if let Some(pos) = held.iter().position(|f| f.slot_seq.wrapping_sub(next) >= 1 << 31) {
                let late = held.swap_remove(pos);
                deliver(Drained::Skipped { seq: late.slot_seq, idx: late.slot_idx });
                continue;
            }
            // Every held frame is ahead of `next`: read its slot again.
            let missing = next % n;
            let was_corrupt = cursor.corrupt.iter().position(|&idx| idx == missing);
            match src.read(missing)? {
                SlotRead::Frame(f) if f.slot_seq == next => {
                    if src.release(missing, f.header)? {
                        held.push(f);
                    } else {
                        deliver(Drained::ReleaseMiss { idx: missing, header: f.header });
                    }
                    continue;
                }
                SlotRead::Corrupt(header) => {
                    if src.release(missing, header)? {
                        deliver(Drained::Rejected { idx: missing, header });
                    } else {
                        deliver(Drained::ReleaseMiss { idx: missing, header });
                    }
                }
                // Nothing there (or already reused by a later lap): a
                // number rejected as corrupt earlier, or a header that
                // will never land.
                SlotRead::Empty | SlotRead::Frame(_) => {
                    if was_corrupt.is_none() {
                        deliver(Drained::Skipped { seq: next, idx: missing });
                    }
                }
            }
            if let Some(pos) = was_corrupt {
                cursor.corrupt.swap_remove(pos);
            }
            cursor.next = next.wrapping_add(1);
        }
        if !progressed {
            return Ok(());
        }
    }
}

/// Read slot `idx` and consume it if anything was published there:
/// `Some(Ok(frame))`, `Some(Err(idx))` for a corrupt record (handed on as
/// [`Drained::Rejected`]), `None` when empty or when the header changed
/// between the read and the release ([`Drained::ReleaseMiss`]; the next
/// read takes it).
fn take_slot<S: SlotSource>(
    src: &S,
    idx: u32,
    deliver: &mut impl FnMut(Drained),
) -> Result<Option<std::result::Result<DrainedSlot, u32>>> {
    let (header, taken) = match src.read(idx)? {
        SlotRead::Empty => return Ok(None),
        SlotRead::Corrupt(header) => (header, Err(idx)),
        SlotRead::Frame(f) => (f.header, Ok(f)),
    };
    if !src.release(idx, header)? {
        deliver(Drained::ReleaseMiss { idx, header });
        return Ok(None);
    }
    if taken.is_err() {
        deliver(Drained::Rejected { idx, header });
    }
    Ok(Some(taken))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntb_sim::{connect_ports, EventLog, HostMemory, MetricsRegistry, PortConfig, TimeModel};

    fn ring_pair(cfg: &NetConfig) -> (Arc<NtbPort>, Arc<NtbPort>, WindowLayout) {
        let ma = HostMemory::new(0, 64 << 20);
        let mb = HostMemory::new(1, 64 << 20);
        let (a, b) = connect_ports(
            PortConfig::new(0, 1),
            PortConfig::new(1, 0),
            &ma,
            &mb,
            Arc::new(TimeModel::zero()),
        )
        .unwrap();
        let layout = WindowLayout::new(
            cfg.direct_buf,
            cfg.bypass_buf,
            cfg.tx_slots,
            cfg.coalesce_payload_max,
        );
        (a, b, layout)
    }

    fn small_cfg() -> NetConfig {
        let mut cfg = NetConfig::fast(2);
        cfg.direct_buf = 64 << 10;
        cfg.bypass_buf = 64 << 10;
        cfg.tx_slots = 4;
        cfg.coalesce_batch = 4;
        cfg.coalesce_payload_max = 1024;
        cfg
    }

    fn tx_ring(port: &Arc<NtbPort>, layout: WindowLayout, cfg: &NetConfig) -> TxSlotRing {
        let obs = Obs::new(EventLog::new(1, 16), MetricsRegistry::new(1), 0, 0);
        TxSlotRing::new(Arc::clone(port), 1, layout, cfg, Arc::new(TimeModel::zero()), obs)
    }

    #[test]
    fn publish_withholds_header_until_flush() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        tx.send(Frame::put(0, 1, 3, 0, 7, TransferMode::Memcpy), Some(b"abc"), false).unwrap();
        let region = b.incoming().region();
        assert!(matches!(read_slot(region, &layout, 1, 0, false).unwrap(), SlotRead::Empty));
        assert_eq!(tx.staged(), 1);
        tx.flush().unwrap();
        assert_eq!(tx.staged(), 0);
        let SlotRead::Frame(slot) = read_slot(region, &layout, 1, 0, false).unwrap() else {
            panic!("expected a frame after flush");
        };
        assert_eq!(slot.frame.aux, 7);
        assert_eq!(slot.payload.as_deref(), Some(&b"abc"[..]));
        assert_eq!(slot.slot_seq, 0);
    }

    #[test]
    fn batch_lands_in_distinct_slots_with_one_drain_pass() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        for i in 0..3u32 {
            let body = vec![i as u8 + 1; 8];
            tx.send(Frame::put(0, 1, 8, i * 8, 100 + i, TransferMode::Memcpy), Some(&body), false)
                .unwrap();
        }
        tx.flush().unwrap();
        let region = b.incoming().region();
        let mut auxes = vec![];
        for idx in 0..layout.ring_slots {
            if let SlotRead::Frame(s) = read_slot(region, &layout, 1, idx, false).unwrap() {
                auxes.push(s.frame.aux);
                assert!(release_slot(region, &layout, idx, s.header).unwrap());
            }
        }
        assert_eq!(auxes, vec![100, 101, 102]);
        // All consumed: the ring reads empty again.
        for idx in 0..layout.ring_slots {
            assert!(matches!(read_slot(region, &layout, 1, idx, false).unwrap(), SlotRead::Empty));
        }
    }

    #[test]
    fn consumed_slot_is_reusable() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        let region = b.incoming().region();
        // Two full wraps of the 4-slot ring; consume as we go.
        for round in 0..8u32 {
            tx.send(
                Frame::put(0, 1, 4, 0, round + 1, TransferMode::Memcpy),
                Some(&[9u8; 4]),
                false,
            )
            .unwrap();
            tx.flush().unwrap();
            let idx = round % layout.ring_slots;
            let SlotRead::Frame(s) = read_slot(region, &layout, 1, idx, false).unwrap() else {
                panic!("round {round}: expected frame in slot {idx}");
            };
            assert_eq!(s.frame.aux, round + 1);
            assert_eq!(s.slot_seq, round);
            assert!(release_slot(region, &layout, idx, s.header).unwrap());
        }
    }

    #[test]
    fn occupied_slot_blocks_with_bounded_wait() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let mut tx = tx_ring(&a, layout, &cfg);
        tx.set_retry(Duration::from_millis(5), 2);
        let region = b.incoming().region();
        // Fill every slot without consuming any.
        for i in 0..4u32 {
            tx.send(Frame::put(0, 1, 0, 0, i + 1, TransferMode::Memcpy), None, false).unwrap();
        }
        tx.flush().unwrap();
        // Slot 0 is still occupied: the fifth publish must fail in
        // bounded time, not hang.
        let err =
            tx.send(Frame::put(0, 1, 0, 0, 9, TransferMode::Memcpy), None, false).unwrap_err();
        assert_eq!(err.error, NtbError::LinkFailed { attempts: 3 });
        // Consume one slot; the publish now succeeds into it.
        let SlotRead::Frame(s) = read_slot(region, &layout, 1, 0, false).unwrap() else {
            panic!("expected slot 0 occupied");
        };
        assert!(release_slot(region, &layout, 0, s.header).unwrap());
        tx.send(Frame::put(0, 1, 0, 0, 9, TransferMode::Memcpy), None, false).unwrap();
        tx.flush().unwrap();
        let SlotRead::Frame(s) = read_slot(region, &layout, 1, 0, false).unwrap() else {
            panic!("expected reused slot 0");
        };
        assert_eq!(s.frame.aux, 9);
    }

    #[test]
    fn large_payload_rides_the_dma_chain() {
        let mut cfg = small_cfg();
        cfg.pio_crossover = 16; // force the chain path for 64-byte payloads
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        let p1 = vec![0xAA; 64];
        let p2 = vec![0xBB; 64];
        tx.send(Frame::put(0, 1, 64, 0, 1, TransferMode::Dma), Some(&p1), false).unwrap();
        tx.send(Frame::put(0, 1, 64, 64, 2, TransferMode::Dma), Some(&p2), false).unwrap();
        tx.flush().unwrap();
        let region = b.incoming().region();
        let SlotRead::Frame(s0) = read_slot(region, &layout, 1, 0, false).unwrap() else {
            panic!("slot 0")
        };
        let SlotRead::Frame(s1) = read_slot(region, &layout, 1, 1, false).unwrap() else {
            panic!("slot 1")
        };
        assert_eq!(s0.payload.unwrap(), p1);
        assert_eq!(s1.payload.unwrap(), p2);
    }

    #[test]
    fn oversized_payloads_take_their_area_one_at_a_time() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let mut tx = tx_ring(&a, layout, &cfg);
        tx.set_retry(Duration::from_millis(5), 2);
        let region = b.incoming().region();
        let big = vec![0x5A; 2000];
        let put = |dest, aux| Frame::put(0, dest, 2000, 0, aux, TransferMode::Memcpy);
        // To the neighbour: the direct area, flushed at once.
        tx.send(put(1, 1), Some(&big), false).unwrap();
        assert_eq!(tx.staged(), 0);
        let SlotRead::Frame(first) = read_slot(region, &layout, 1, 0, false).unwrap() else {
            panic!("expected slot 0 published");
        };
        assert_eq!(first.payload.as_deref(), Some(&big[..]));
        // Routed onward: the bypass area, free although the direct one is
        // not, and read back from there.
        let onward = vec![0xA5; 2000];
        tx.send(put(2, 2), Some(&onward), false).unwrap();
        let SlotRead::Frame(routed) = read_slot(region, &layout, 1, 1, false).unwrap() else {
            panic!("expected slot 1 published");
        };
        assert_eq!(routed.payload.as_deref(), Some(&onward[..]));
        assert_eq!(region.read_vec(layout.area_offset(true), 2000).unwrap(), big);
        // The direct area still holds slot 0's payload: the next one waits,
        // bounded, until that slot is released.
        assert_eq!(
            tx.send(put(1, 3), Some(&big), false).unwrap_err().error,
            NtbError::LinkFailed { attempts: 3 }
        );
        assert!(release_slot(region, &layout, 0, first.header).unwrap());
        tx.send(put(1, 3), Some(&big), false).unwrap();
    }

    #[test]
    fn deadline_word_roundtrips_through_the_ring() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        let f = Frame::put(0, 1, 3, 0, 7, TransferMode::Memcpy).with_deadline_us(987_654);
        tx.send(f, Some(b"abc"), false).unwrap();
        tx.flush().unwrap();
        let region = b.incoming().region();
        let SlotRead::Frame(slot) = read_slot(region, &layout, 1, 0, false).unwrap() else {
            panic!("expected a frame");
        };
        assert_eq!(slot.frame.deadline_us, 987_654);
        assert_eq!(slot.frame.aux, 7);
    }

    /// What one drain handed on, with frames reduced to their aux word.
    #[derive(Debug, PartialEq)]
    enum Out {
        Aux(u32),
        Reject(u32),
        Skip { seq: u32, idx: u32 },
        Miss(u32),
    }
    use Out::{Aux, Miss, Reject, Skip};

    /// Drain `src` once, in delivery order.
    fn drain(src: &impl SlotSource, cursor: &mut RxCursor) -> Vec<Out> {
        let mut out = vec![];
        drain_in_order(src, cursor, |d| {
            out.push(match d {
                Drained::Frame(s) => Aux(s.frame.aux),
                Drained::Rejected { idx, .. } => Reject(idx),
                Drained::Skipped { seq, idx } => Skip { seq, idx },
                Drained::ReleaseMiss { idx, .. } => Miss(idx),
            })
        })
        .unwrap();
        out
    }

    fn put(aux: u32) -> Frame {
        Frame::put(0, 1, 4, 0, aux, TransferMode::Memcpy)
    }

    #[test]
    fn wrapping_batch_drains_in_publish_order() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        let src = RegionSlots {
            region: b.incoming().region(),
            layout: &layout,
            me: 1,
            check_crc: false,
            model: &TimeModel::zero(),
        };
        let mut next = RxCursor::default();
        for aux in 1..=3 {
            tx.send(put(aux), Some(&[1; 4]), false).unwrap();
        }
        tx.flush().unwrap();
        assert_eq!(drain(&src, &mut next), vec![Aux(1), Aux(2), Aux(3)]);
        // The next batch occupies slots 3, 0, 1, 2: it wraps past the
        // ring's last slot, and slot order is no longer publish order.
        for aux in 4..=7 {
            tx.send(put(aux), Some(&[1; 4]), false).unwrap();
        }
        tx.flush().unwrap();
        assert_eq!(drain(&src, &mut next), vec![Aux(4), Aux(5), Aux(6), Aux(7)]);
        assert_eq!(next.next, 7);
    }

    /// Reads through to the real ring, but flushes the sender's staged
    /// batch right after the receiver's first read of slot `trigger` —
    /// headers landing while the receiver is mid-scan.
    struct FlushOnRead<'a> {
        inner: RegionSlots<'a>,
        tx: &'a TxSlotRing,
        trigger: u32,
        fired: std::cell::Cell<bool>,
    }

    impl SlotSource for FlushOnRead<'_> {
        fn ring_slots(&self) -> u32 {
            self.inner.ring_slots()
        }

        fn read(&self, idx: u32) -> Result<SlotRead> {
            let read = self.inner.read(idx);
            if idx == self.trigger && !self.fired.replace(true) {
                self.tx.flush().unwrap();
            }
            read
        }

        fn release(&self, idx: u32, header: u32) -> Result<bool> {
            self.inner.release(idx, header)
        }
    }

    #[test]
    fn header_published_mid_scan_is_not_overtaken() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        let inner = RegionSlots {
            region: b.incoming().region(),
            layout: &layout,
            me: 1,
            check_crc: false,
            model: &TimeModel::zero(),
        };
        let mut next = RxCursor::default();
        // Move the ring off slot 0 so the batch below also wraps.
        for aux in 1..=2 {
            tx.send(put(aux), Some(&[1; 4]), false).unwrap();
        }
        tx.flush().unwrap();
        assert_eq!(drain(&inner, &mut next), vec![Aux(1), Aux(2)]);
        // Stage seqs 2..=4 (slots 2, 3, 0); the receiver reads slot 2
        // empty, then all three headers land before it reaches slot 3.
        for aux in 3..=5 {
            tx.send(put(aux), Some(&[1; 4]), false).unwrap();
        }
        let src = FlushOnRead { inner, tx: &tx, trigger: 2, fired: Default::default() };
        assert_eq!(drain(&src, &mut next), vec![Aux(3), Aux(4), Aux(5)]);
    }

    #[test]
    fn header_that_never_lands_does_not_stall_the_ring() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        let region = b.incoming().region();
        let src = RegionSlots {
            region,
            layout: &layout,
            me: 1,
            check_crc: false,
            model: &TimeModel::zero(),
        };
        let mut next = RxCursor::default();
        for aux in 1..=2 {
            tx.send(put(aux), Some(&[1; 4]), false).unwrap();
        }
        tx.flush().unwrap();
        // A fault zeroes slot 0's header: seq 0 will never be seen, and
        // seq 1 proves it. The skip is reported as such, not as a CRC
        // rejection.
        region.write(layout.ring_slot_off(0), &0u32.to_le_bytes()).unwrap();
        assert_eq!(drain(&src, &mut next), vec![Skip { seq: 0, idx: 0 }, Aux(2)]);
        for aux in 3..=6 {
            tx.send(put(aux), Some(&[1; 4]), false).unwrap();
        }
        tx.flush().unwrap();
        assert_eq!(drain(&src, &mut next), vec![Aux(3), Aux(4), Aux(5), Aux(6)]);
    }

    #[test]
    fn corrupt_slot_is_reported_once_across_drains() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        let region = b.incoming().region();
        let src = RegionSlots {
            region,
            layout: &layout,
            me: 1,
            check_crc: false,
            model: &TimeModel::zero(),
        };
        let mut next = RxCursor::default();
        tx.send(put(1), Some(&[1; 4]), false).unwrap();
        tx.flush().unwrap();
        // Seq 0's record is corrupt; nothing after it has landed yet.
        let huge = (layout.direct_len.max(layout.bypass_len) as u32 + 64).to_le_bytes();
        region.write(layout.ring_slot_off(0) + BODY_OFF, &huge).unwrap();
        assert_eq!(drain(&src, &mut next), vec![Reject(0)]);
        // The next drain passes seq 0 over as rejected, not as a skip.
        for aux in 2..=3 {
            tx.send(put(aux), Some(&[1; 4]), false).unwrap();
        }
        tx.flush().unwrap();
        assert_eq!(drain(&src, &mut next), vec![Aux(2), Aux(3)]);
        assert_eq!(next.next, 3);
    }

    /// Reads through to the real ring, but rewrites slot `idx`'s header
    /// right after the receiver reads it once — a second writer the
    /// compare-and-swap clear must not paper over.
    struct RewriteOnRead<'a> {
        inner: RegionSlots<'a>,
        idx: u32,
        fired: std::cell::Cell<bool>,
    }

    impl SlotSource for RewriteOnRead<'_> {
        fn ring_slots(&self) -> u32 {
            self.inner.ring_slots()
        }

        fn read(&self, idx: u32) -> Result<SlotRead> {
            let read = self.inner.read(idx)?;
            if let SlotRead::Frame(f) = &read {
                if idx == self.idx && !self.fired.replace(true) {
                    let off = self.inner.layout.ring_slot_off(idx);
                    self.inner.region.write(off, &(f.header ^ (1 << 31)).to_le_bytes())?;
                }
            }
            Ok(read)
        }

        fn release(&self, idx: u32, header: u32) -> Result<bool> {
            self.inner.release(idx, header)
        }
    }

    #[test]
    fn header_changed_before_its_clear_is_reported_and_kept() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        let inner = RegionSlots {
            region: b.incoming().region(),
            layout: &layout,
            me: 1,
            check_crc: false,
            model: &TimeModel::zero(),
        };
        let mut next = RxCursor::default();
        tx.send(put(1), Some(&[1; 4]), false).unwrap();
        tx.flush().unwrap();
        let src = RewriteOnRead { inner, idx: 0, fired: Default::default() };
        // The clear misses: reported, nothing delivered, nothing skipped.
        assert_eq!(drain(&src, &mut next), vec![Miss(0)]);
        assert_eq!(next.next, 0);
        // The slot was left in place, so the next drain takes it.
        assert_eq!(drain(&src, &mut next), vec![Aux(1)]);
        assert_eq!(next.next, 1);
    }

    #[test]
    fn failed_flush_is_rolled_back_and_reused() {
        let mut cfg = small_cfg();
        cfg.pio_crossover = 16; // 64-byte payloads ride the DMA chain
        let ma = HostMemory::new(0, 64 << 20);
        let mb = HostMemory::new(1, 64 << 20);
        let faults = ntb_sim::FaultInjector::new(
            ntb_sim::FaultPlan::none().with_scripted(0, ntb_sim::FaultAction::FailDma, 1),
            0,
        );
        let (a, b) = ntb_sim::connect_ports_with_faults(
            PortConfig::new(0, 1),
            PortConfig::new(1, 0),
            &ma,
            &mb,
            Arc::new(TimeModel::zero()),
            faults,
        )
        .unwrap();
        let layout = WindowLayout::new(
            cfg.direct_buf,
            cfg.bypass_buf,
            cfg.tx_slots,
            cfg.coalesce_payload_max,
        );
        let tx = tx_ring(&a, layout, &cfg);
        let check_crc = a.outgoing().faults().is_active();
        let src = RegionSlots {
            region: b.incoming().region(),
            layout: &layout,
            me: 1,
            check_crc,
            model: &TimeModel::zero(),
        };
        let mut next = RxCursor::default();
        for aux in 1..=2 {
            tx.send(Frame::put(0, 1, 64, 0, aux, TransferMode::Dma), Some(&[7; 64]), false)
                .unwrap();
        }
        assert!(tx.flush().is_err(), "the scripted DMA failure fails the flush");
        assert!(drain(&src, &mut next).is_empty(), "no header of the failed batch landed");
        // The next publish reuses seq 0, so the receiver never waits on
        // a sequence number that will not be published.
        tx.send(Frame::put(0, 1, 64, 0, 3, TransferMode::Dma), Some(&[7; 64]), false).unwrap();
        tx.flush().unwrap();
        assert_eq!(drain(&src, &mut next), vec![Aux(3)]);
        assert_eq!(next.next, 1);
    }

    #[test]
    fn corrupt_length_is_rejected_not_overread() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        tx.send(Frame::put(0, 1, 4, 0, 1, TransferMode::Memcpy), Some(&[1, 2, 3, 4]), false)
            .unwrap();
        tx.flush().unwrap();
        let region = b.incoming().region();
        // Forge an absurd length in the record body (simulating in-flight
        // corruption that still decodes).
        let huge = (layout.direct_len.max(layout.bypass_len) as u32 + 64).to_le_bytes();
        region.write(layout.ring_slot_off(0) + BODY_OFF, &huge).unwrap();
        assert!(matches!(read_slot(region, &layout, 1, 0, false).unwrap(), SlotRead::Corrupt(_)));
    }

    #[test]
    fn crc_mismatch_reads_corrupt() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        tx.send(Frame::put(0, 1, 4, 0, 1, TransferMode::Memcpy), Some(&[1, 2, 3, 4]), false)
            .unwrap();
        tx.flush().unwrap();
        let region = b.incoming().region();
        // The clean-link sender left the CRC word zero, so a checked read
        // against real contents fails — stand-in for a flipped payload
        // byte on a faulty link.
        assert!(matches!(read_slot(region, &layout, 1, 0, true).unwrap(), SlotRead::Corrupt(_)));
    }
}
