//! ScratchPad registers.
//!
//! Each NTB link exposes a bank of 32-bit ScratchPad registers that both
//! connected ports can read and write directly (paper §II-A). The paper's
//! protocol uses them as a mailbox for transfer metadata (`SrcId`, `DestId`,
//! symmetric-heap index, offset, size, send/receive flag) published just
//! before a doorbell ring, and for the host-id / BAR-region exchange during
//! `shmem_init`. `ntb-net` uses the lower half for that exchange only (its
//! frames ride a slot ring in the memory window); the upper half carries
//! the liveness heartbeat and gossiped membership view of the failure
//! detector.
//!
//! Each access is a 32-bit non-posted PCIe transaction, so the model charges
//! [`TimeModel::scratchpad_latency`] per register read or write.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use crate::error::{NtbError, Result};
use crate::timing::TimeModel;

/// Number of scratchpad registers per link. The PEX 87xx exposes eight
/// per port pair; the model doubles the bank so registers 0–7 stay the
/// paper's handshake block while 8–15 host the heartbeat and
/// membership-gossip block of the failure detector.
pub const SCRATCHPAD_COUNT: usize = 16;

/// The shared register file of one link. Both ports of a connected pair
/// hold handles to the same bank, exactly like the hardware registers are
/// visible from both PCIe hierarchies.
#[derive(Debug)]
pub struct ScratchpadBank {
    regs: [AtomicU32; SCRATCHPAD_COUNT],
    model: Arc<TimeModel>,
}

impl ScratchpadBank {
    /// Fresh zeroed bank charging latencies against `model`.
    pub fn new(model: Arc<TimeModel>) -> Arc<Self> {
        Arc::new(ScratchpadBank { regs: Default::default(), model })
    }

    fn check(index: usize) -> Result<()> {
        if index >= SCRATCHPAD_COUNT {
            return Err(NtbError::BadScratchpadIndex { index });
        }
        Ok(())
    }

    /// Write one register (one non-posted 32-bit transaction).
    pub fn write(&self, index: usize, value: u32) -> Result<()> {
        Self::check(index)?;
        self.model.delay(self.model.scratchpad_latency);
        self.regs[index].store(value, Ordering::SeqCst);
        Ok(())
    }

    /// Read one register.
    pub fn read(&self, index: usize) -> Result<u32> {
        Self::check(index)?;
        self.model.delay(self.model.scratchpad_latency);
        Ok(self.regs[index].load(Ordering::SeqCst))
    }

    /// Write `values` into consecutive registers starting at `start`.
    pub fn write_block(&self, start: usize, values: &[u32]) -> Result<()> {
        if start + values.len() > SCRATCHPAD_COUNT {
            return Err(NtbError::BadScratchpadIndex { index: start + values.len() - 1 });
        }
        for (i, v) in values.iter().enumerate() {
            self.write(start + i, *v)?;
        }
        Ok(())
    }

    /// Read `len` consecutive registers starting at `start`.
    pub fn read_block(&self, start: usize, len: usize) -> Result<Vec<u32>> {
        if start + len > SCRATCHPAD_COUNT {
            return Err(NtbError::BadScratchpadIndex { index: start + len - 1 });
        }
        (start..start + len).map(|i| self.read(i)).collect()
    }

    /// Atomic compare-exchange on one register. The PEX chips don't offer
    /// this in hardware; the driver layer emulates it with a
    /// read-check-write under the link's setup serialization, and the model
    /// grants it atomically (used only during `shmem_init` id exchange and
    /// by tests).
    pub fn compare_exchange(&self, index: usize, current: u32, new: u32) -> Result<bool> {
        Self::check(index)?;
        self.model.delay(self.model.scratchpad_latency);
        Ok(self.regs[index]
            .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> Arc<ScratchpadBank> {
        ScratchpadBank::new(Arc::new(TimeModel::zero()))
    }

    #[test]
    fn write_read_single() {
        let b = bank();
        b.write(0, 0xCAFE_BABE).unwrap();
        assert_eq!(b.read(0).unwrap(), 0xCAFE_BABE);
        assert_eq!(b.read(1).unwrap(), 0);
    }

    #[test]
    fn index_bounds() {
        let b = bank();
        assert!(b.write(SCRATCHPAD_COUNT, 1).is_err());
        assert!(b.read(SCRATCHPAD_COUNT).is_err());
        assert!(b.write(SCRATCHPAD_COUNT - 1, 1).is_ok());
    }

    #[test]
    fn block_roundtrip() {
        let b = bank();
        b.write_block(2, &[10, 20, 30]).unwrap();
        assert_eq!(b.read_block(2, 3).unwrap(), vec![10, 20, 30]);
    }

    #[test]
    fn block_bounds() {
        let b = bank();
        assert!(b.write_block(SCRATCHPAD_COUNT - 2, &[1, 2, 3]).is_err());
        assert!(b.read_block(SCRATCHPAD_COUNT - 1, 2).is_err());
        assert!(b.write_block(SCRATCHPAD_COUNT - 3, &[1, 2, 3]).is_ok());
    }

    #[test]
    fn compare_exchange_works() {
        let b = bank();
        b.write(3, 7).unwrap();
        assert!(!b.compare_exchange(3, 0, 9).unwrap());
        assert_eq!(b.read(3).unwrap(), 7);
        assert!(b.compare_exchange(3, 7, 9).unwrap());
        assert_eq!(b.read(3).unwrap(), 9);
    }

    #[test]
    fn visible_from_both_sides() {
        // Two "ports" hold clones of the same bank.
        let b = bank();
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || {
            b2.write(5, 1234).unwrap();
        });
        h.join().unwrap();
        assert_eq!(b.read(5).unwrap(), 1234);
    }

    #[test]
    fn charged_latency_respects_scale() {
        use std::time::{Duration, Instant};
        let model = Arc::new(TimeModel { scale: 1.0, ..TimeModel::paper() });
        let lat = model.scratchpad_latency;
        let b = ScratchpadBank::new(model);
        let t0 = Instant::now();
        for _ in 0..10 {
            b.write(0, 1).unwrap();
        }
        assert!(t0.elapsed() >= lat * 10 - Duration::from_micros(1));
    }
}
