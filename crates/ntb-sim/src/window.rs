//! Memory windows: the data path through the NTB.
//!
//! An [`OutgoingWindow`] is the sender's view: stores into it are
//! address-translated by the BAR and land in the *peer host's* memory
//! (its [`IncomingWindow`] region). Every transfer through the window:
//!
//! 1. is bounds-checked against the BAR limit,
//! 2. is admission-checked against the peer's requester-ID LUT,
//! 3. reserves the physical link for its wire time (serializing with any
//!    other transfer in the same direction and paying the duplex penalty if
//!    the reverse direction is busy),
//! 4. copies the payload, and
//! 5. waits out the reservation so wall-clock time reflects the wire.
//!
//! The [`IncomingWindow`] is the receiver's view: plain local memory (the
//! NTB wrote straight into RAM), read and written at local-copy cost.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::bar::{BarConfig, LutTable};
use crate::error::{NtbError, Result};
use crate::fault::{DmaFaultOutcome, FaultInjector};
use crate::memory::Region;
use crate::stats::PortStats;
use crate::timing::{HostActivity, LinkDirection, LinkTimer, TimeModel, TransferMode};

/// The sender's translated view of the peer's window memory.
pub struct OutgoingWindow {
    bar: BarConfig,
    remote: Region,
    link: Arc<LinkTimer>,
    dir: LinkDirection,
    model: Arc<TimeModel>,
    peer_lut: Arc<LutTable>,
    requester_id: u16,
    stats: Arc<PortStats>,
    peer_stats: Arc<PortStats>,
    /// Transmit activity of the sending host (this transfer marks it).
    local_activity: Arc<HostActivity>,
    /// Transmit activity of the receiving host (contention source: its
    /// other adapter sending while we write into it).
    peer_activity: Arc<HostActivity>,
    /// The link's fault source (shared with the peer port; the lossless
    /// injector unless the network was built with a fault plan).
    faults: Arc<FaultInjector>,
}

impl std::fmt::Debug for OutgoingWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OutgoingWindow")
            .field("bar", &self.bar)
            .field("dir", &self.dir)
            .field("requester_id", &self.requester_id)
            .finish()
    }
}

impl OutgoingWindow {
    /// Wire an outgoing window. `remote` is the peer's incoming region this
    /// window translates into; `peer_lut` is the peer's admission table.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        bar: BarConfig,
        remote: Region,
        link: Arc<LinkTimer>,
        dir: LinkDirection,
        model: Arc<TimeModel>,
        peer_lut: Arc<LutTable>,
        requester_id: u16,
        stats: Arc<PortStats>,
        peer_stats: Arc<PortStats>,
        local_activity: Arc<HostActivity>,
        peer_activity: Arc<HostActivity>,
    ) -> Result<Arc<Self>> {
        Self::with_faults(
            bar,
            remote,
            link,
            dir,
            model,
            peer_lut,
            requester_id,
            stats,
            peer_stats,
            local_activity,
            peer_activity,
            FaultInjector::none(),
        )
    }

    /// Like [`OutgoingWindow::new`], with the link's fault injector.
    #[allow(clippy::too_many_arguments)]
    pub fn with_faults(
        bar: BarConfig,
        remote: Region,
        link: Arc<LinkTimer>,
        dir: LinkDirection,
        model: Arc<TimeModel>,
        peer_lut: Arc<LutTable>,
        requester_id: u16,
        stats: Arc<PortStats>,
        peer_stats: Arc<PortStats>,
        local_activity: Arc<HostActivity>,
        peer_activity: Arc<HostActivity>,
        faults: Arc<FaultInjector>,
    ) -> Result<Arc<Self>> {
        bar.validate()?;
        Ok(Arc::new(OutgoingWindow {
            bar,
            remote,
            link,
            dir,
            model,
            peer_lut,
            requester_id,
            stats,
            peer_stats,
            local_activity,
            peer_activity,
            faults,
        }))
    }

    /// Window size in bytes.
    pub fn size(&self) -> u64 {
        self.bar.size
    }

    /// The BAR configuration backing this window.
    pub fn bar(&self) -> &BarConfig {
        &self.bar
    }

    /// Direction this window's writes travel on the link.
    pub fn direction(&self) -> LinkDirection {
        self.dir
    }

    /// The link's fault injector.
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// Consult the fault model for the next DMA descriptor through this
    /// window (called by the DMA worker before executing it).
    pub fn dma_fault_outcome(&self) -> DmaFaultOutcome {
        self.faults.dma_outcome(self.dir)
    }

    fn admit(&self, offset: u64, len: u64) -> Result<()> {
        if self.faults.link_is_down() {
            return Err(NtbError::LinkDown);
        }
        if let Err(e) = self.bar.check_access(offset, len) {
            self.stats.add_window_violation();
            return Err(e);
        }
        if let Err(e) = self.peer_lut.check(self.requester_id) {
            self.peer_stats.add_lut_reject();
            return Err(e);
        }
        Ok(())
    }

    /// Reserve the link for `bytes` under `mode` and return the completion
    /// deadline. Internal: callers copy first, then wait the deadline.
    /// The receiving host's concurrent transmissions (its other adapter)
    /// count as contention; this transfer marks the sending host busy.
    fn reserve(&self, bytes: u64, mode: TransferMode) -> Instant {
        let wire = self.slowed(self.model.scaled_duration(self.model.transfer_time(bytes, mode)));
        let contended = self.peer_activity.is_tx_busy();
        let deadline = self.link.reserve(self.dir, wire, self.model.duplex_penalty, contended);
        self.local_activity.mark_tx(deadline);
        deadline
    }

    /// Stretch a wire time by the link's gray-failure slow factor (a
    /// degraded port that renegotiated down: slower, never Down).
    fn slowed(&self, wire: Duration) -> Duration {
        let factor = self.faults.slow_factor();
        if factor == 1.0 {
            wire
        } else {
            wire.mul_f64(factor)
        }
    }

    fn account(&self, bytes: u64, mode: TransferMode) {
        self.stats.add_tx(bytes);
        self.peer_stats.add_rx(bytes);
        match mode {
            TransferMode::Dma => self.stats.add_dma_op(),
            TransferMode::Memcpy => self.stats.add_pio_op(),
        }
    }

    /// If the fault model wants this payload corrupted, flip one byte of
    /// what just landed in the remote region. The sender cannot tell — a
    /// bit flip on the wire is invisible until the receiver checks
    /// integrity.
    fn maybe_corrupt(&self, offset: u64, len: u64) -> Result<()> {
        if let Some((delta, mask)) = self.faults.corrupt_payload(self.dir, len) {
            let mut byte = [0u8; 1];
            self.remote.read(offset + delta, &mut byte)?;
            self.remote.write(offset + delta, &[byte[0] ^ mask])?;
        }
        Ok(())
    }

    /// Synchronously push `data` through the window at `offset`.
    /// Blocks for the modelled wire time (plus queueing on a busy link).
    pub fn write_bytes(&self, offset: u64, data: &[u8], mode: TransferMode) -> Result<()> {
        self.admit(offset, data.len() as u64)?;
        let deadline = self.reserve(data.len() as u64, mode);
        self.remote.write(offset, data)?;
        self.maybe_corrupt(offset, data.len() as u64)?;
        self.account(data.len() as u64, mode);
        if self.model.enabled() {
            // DEADLINE-CLIPPED: waits exactly to the reserved wire-time
            // deadline computed above.
            self.model.wait_until(deadline);
        }
        Ok(())
    }

    /// Push one little-endian `u32` through the window at `offset` as a
    /// single atomic store (see [`Region::store_u32`]): a control word the
    /// peer clears, such as a ring slot header, must land whole and once.
    /// Otherwise like [`write_bytes`](Self::write_bytes), fault model
    /// included (a corrupted word lands with its byte already flipped).
    pub fn write_u32(&self, offset: u64, value: u32, mode: TransferMode) -> Result<()> {
        self.admit(offset, 4)?;
        let deadline = self.reserve(4, mode);
        let mut bytes = value.to_le_bytes();
        if let Some((delta, mask)) = self.faults.corrupt_payload(self.dir, 4) {
            bytes[delta as usize] ^= mask;
        }
        self.remote.store_u32(offset, u32::from_le_bytes(bytes))?;
        self.account(4, mode);
        if self.model.enabled() {
            // DEADLINE-CLIPPED: waits exactly to the reserved wire-time
            // deadline computed above.
            self.model.wait_until(deadline);
        }
        Ok(())
    }

    /// Synchronously push `len` bytes from `src` region (at `src_offset`)
    /// through the window at `dst_offset`. This is the zero-staging path
    /// the DMA engine uses.
    pub fn write_from_region(
        &self,
        src: &Region,
        src_offset: u64,
        dst_offset: u64,
        len: u64,
        mode: TransferMode,
    ) -> Result<()> {
        self.admit(dst_offset, len)?;
        let deadline = self.reserve(len, mode);
        src.copy_to(src_offset, &self.remote, dst_offset, len)?;
        self.maybe_corrupt(dst_offset, len)?;
        self.account(len, mode);
        if self.model.enabled() {
            // DEADLINE-CLIPPED: waits exactly to the reserved wire-time
            // deadline computed above.
            self.model.wait_until(deadline);
        }
        Ok(())
    }

    /// Read through the window (a non-posted PCIe read): pulls bytes from
    /// the peer's window memory. Much slower than writes in `Memcpy` mode —
    /// every load round-trips the link.
    pub fn read_bytes(&self, offset: u64, buf: &mut [u8], mode: TransferMode) -> Result<()> {
        self.read_charged(offset, buf.len() as u64, mode, |remote| remote.read(offset, buf))
    }

    /// Load one little-endian `u32` through the window as a single atomic
    /// load (see [`Region::load_u32`]), charged as the non-posted read
    /// [`read_bytes`](Self::read_bytes) pays for four bytes: a control
    /// word the peer clears, such as a ring slot header, is seen whole.
    pub fn read_u32(&self, offset: u64, mode: TransferMode) -> Result<u32> {
        let mut word = 0;
        self.read_charged(offset, 4, mode, |remote| {
            word = remote.load_u32(offset)?;
            Ok(())
        })?;
        Ok(word)
    }

    /// One non-posted read of `len` bytes at `offset`: admission, wire
    /// time against our own writes, stats, then `read` of the peer's
    /// window memory.
    fn read_charged(
        &self,
        offset: u64,
        len: u64,
        mode: TransferMode,
        read: impl FnOnce(&Region) -> Result<()>,
    ) -> Result<()> {
        self.admit(offset, len)?;
        let wire = match mode {
            TransferMode::Dma => self.model.transfer_time(len, TransferMode::Dma),
            TransferMode::Memcpy => self.model.pio_read_time(len),
        };
        // Read completions travel opposite to our writes.
        let deadline = self.link.reserve(
            self.dir.opposite(),
            self.slowed(self.model.scaled_duration(wire)),
            self.model.duplex_penalty,
            self.peer_activity.is_tx_busy(),
        );
        read(&self.remote)?;
        self.stats.add_rx(len);
        match mode {
            TransferMode::Dma => self.stats.add_dma_op(),
            TransferMode::Memcpy => self.stats.add_pio_op(),
        }
        if self.model.enabled() {
            // DEADLINE-CLIPPED: waits exactly to the reserved wire-time
            // deadline computed above.
            self.model.wait_until(deadline);
        }
        Ok(())
    }

    /// Account a non-posted PIO read of `len` bytes that targets the
    /// peer's *read aperture* rather than the window region: same link
    /// admission (down-link, LUT) and the same wire time and stats as
    /// [`read_bytes`](Self::read_bytes) in `Memcpy` mode, but no window
    /// bounds check and no copy — the caller reads the published aperture
    /// directly.
    pub fn charge_pio_read(&self, len: u64) -> Result<()> {
        if self.faults.link_is_down() {
            return Err(NtbError::LinkDown);
        }
        if let Err(e) = self.peer_lut.check(self.requester_id) {
            self.peer_stats.add_lut_reject();
            return Err(e);
        }
        let wire = self.model.pio_read_time(len);
        // Read completions travel opposite to our writes.
        let deadline = self.link.reserve(
            self.dir.opposite(),
            self.slowed(self.model.scaled_duration(wire)),
            self.model.duplex_penalty,
            self.peer_activity.is_tx_busy(),
        );
        self.stats.add_rx(len);
        self.stats.add_pio_op();
        if self.model.enabled() {
            // DEADLINE-CLIPPED: waits exactly to the reserved wire-time
            // deadline computed above.
            self.model.wait_until(deadline);
        }
        Ok(())
    }
}

/// The receiver's view of its own window memory: the region remote writes
/// land in, accessed at local cost.
#[derive(Debug, Clone)]
pub struct IncomingWindow {
    bar: BarConfig,
    region: Region,
}

impl IncomingWindow {
    /// Wrap the local backing region of a window.
    pub fn new(bar: BarConfig, region: Region) -> Result<Self> {
        bar.validate()?;
        Ok(IncomingWindow { bar, region })
    }

    /// Window size in bytes.
    pub fn size(&self) -> u64 {
        self.bar.size
    }

    /// The local memory backing the window. The service thread copies out
    /// of this (and forwards out of it, for bypass traffic).
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// The BAR configuration backing this window.
    pub fn bar(&self) -> &BarConfig {
        &self.bar
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bar::BarKind;
    use crate::error::NtbError;

    fn setup(size: u64, model: TimeModel) -> (Arc<OutgoingWindow>, IncomingWindow, Arc<LutTable>) {
        let model = Arc::new(model);
        let remote_region = Region::anonymous(size);
        let bar = BarConfig { index: 2, kind: BarKind::Bar64, size, translation_base: 0 };
        let lut = Arc::new(LutTable::new());
        lut.insert(0x42);
        let out = OutgoingWindow::new(
            bar,
            remote_region.clone(),
            LinkTimer::new(),
            LinkDirection::Upstream,
            model,
            Arc::clone(&lut),
            0x42,
            Arc::new(PortStats::new()),
            Arc::new(PortStats::new()),
            HostActivity::new(),
            HostActivity::new(),
        )
        .unwrap();
        let incoming = IncomingWindow::new(bar, remote_region).unwrap();
        (out, incoming, lut)
    }

    #[test]
    fn write_lands_in_peer_memory() {
        let (out, incoming, _) = setup(4096, TimeModel::zero());
        out.write_bytes(100, b"ntb payload", TransferMode::Dma).unwrap();
        assert_eq!(incoming.region().read_vec(100, 11).unwrap(), b"ntb payload");
    }

    #[test]
    fn write_beyond_limit_rejected() {
        let (out, _, _) = setup(4096, TimeModel::zero());
        let err = out.write_bytes(4090, &[0u8; 10], TransferMode::Dma).unwrap_err();
        assert!(matches!(err, NtbError::WindowLimitExceeded { .. }));
    }

    #[test]
    fn lut_miss_blocks_transfer() {
        let (out, incoming, lut) = setup(4096, TimeModel::zero());
        lut.remove(0x42);
        let err = out.write_bytes(0, &[1u8; 4], TransferMode::Dma).unwrap_err();
        assert_eq!(err, NtbError::LutMiss { requester_id: 0x42 });
        // Nothing landed.
        assert_eq!(incoming.region().read_vec(0, 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn region_to_region_write() {
        let (out, incoming, _) = setup(4096, TimeModel::zero());
        let src = Region::anonymous(64);
        src.write(8, b"fromdma!").unwrap();
        out.write_from_region(&src, 8, 256, 8, TransferMode::Dma).unwrap();
        assert_eq!(incoming.region().read_vec(256, 8).unwrap(), b"fromdma!");
    }

    #[test]
    fn read_pulls_from_peer() {
        let (out, incoming, _) = setup(4096, TimeModel::zero());
        incoming.region().write(10, b"remote!").unwrap();
        let mut buf = [0u8; 7];
        out.read_bytes(10, &mut buf, TransferMode::Memcpy).unwrap();
        assert_eq!(&buf, b"remote!");
    }

    #[test]
    fn timed_write_takes_wire_time() {
        let model = TimeModel::paper();
        let expected = model.scaled_duration(model.transfer_time(256 * 1024, TransferMode::Dma));
        let (out, _, _) = setup(1 << 20, model);
        let t0 = Instant::now();
        out.write_bytes(0, &vec![7u8; 256 * 1024], TransferMode::Dma).unwrap();
        let elapsed = t0.elapsed();
        assert!(elapsed >= expected, "elapsed {elapsed:?} < modelled {expected:?}");
    }

    #[test]
    fn slow_port_stretches_wire_time_without_killing_link() {
        let model = TimeModel::scaled(0.05);
        let nominal = model.scaled_duration(model.transfer_time(256 * 1024, TransferMode::Dma));
        let (out, _, _) = setup(1 << 20, model);
        out.faults().set_slow_factor(4.0);
        let payload = vec![7u8; 256 * 1024];
        let t0 = Instant::now();
        // The link stays up — the write succeeds, it is just slow.
        out.write_bytes(0, &payload, TransferMode::Dma).unwrap();
        let slow = t0.elapsed();
        assert!(
            slow >= nominal.mul_f64(3.5),
            "slow-port write {slow:?} should be ~4x nominal {nominal:?}"
        );
        out.faults().set_slow_factor(1.0);
        let t1 = Instant::now();
        out.write_bytes(0, &payload, TransferMode::Dma).unwrap();
        assert!(t1.elapsed() < slow, "recovered port must be faster than the gray window");
    }

    #[test]
    fn memcpy_slower_than_dma_for_large_transfers() {
        // Use a shrunk time scale to keep the test fast but the ordering
        // observable.
        let model = TimeModel::scaled(0.05);
        let (out, _, _) = setup(1 << 20, model);
        let payload = vec![1u8; 512 * 1024];
        // Untimed first touch: faulting in and zero-filling the fresh
        // region is a host cost the model does not charge, and it would
        // otherwise land on whichever write is timed first.
        out.write_bytes(0, &payload, TransferMode::Dma).unwrap();
        let t0 = Instant::now();
        out.write_bytes(0, &payload, TransferMode::Dma).unwrap();
        let dma = t0.elapsed();
        let t1 = Instant::now();
        out.write_bytes(0, &payload, TransferMode::Memcpy).unwrap();
        let pio = t1.elapsed();
        assert!(pio > dma, "pio {pio:?} should exceed dma {dma:?}");
    }

    #[test]
    fn stats_recorded() {
        let (out, _, _) = setup(4096, TimeModel::zero());
        out.write_bytes(0, &[0u8; 128], TransferMode::Dma).unwrap();
        out.write_bytes(0, &[0u8; 64], TransferMode::Memcpy).unwrap();
        let _ = out.write_bytes(4090, &[0u8; 100], TransferMode::Dma);
        assert_eq!(out.stats.bytes_tx(), 192);
        assert_eq!(out.stats.dma_ops(), 1);
        assert_eq!(out.stats.pio_ops(), 1);
        assert_eq!(out.stats.window_violations(), 1);
        assert_eq!(out.peer_stats.bytes_rx(), 192);
    }

    #[test]
    fn bad_bar_rejected_at_construction() {
        let bar = BarConfig { index: 0, kind: BarKind::Bar32, size: 100, translation_base: 0 };
        let r = OutgoingWindow::new(
            bar,
            Region::anonymous(100),
            LinkTimer::new(),
            LinkDirection::Upstream,
            Arc::new(TimeModel::zero()),
            Arc::new(LutTable::new()),
            0,
            Arc::new(PortStats::new()),
            Arc::new(PortStats::new()),
            HostActivity::new(),
            HostActivity::new(),
        );
        assert!(r.is_err());
        assert!(IncomingWindow::new(bar, Region::anonymous(100)).is_err());
    }
}
