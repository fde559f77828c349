//! Doorbell registers: cross-host interrupt signalling.
//!
//! Each NTB port carries sixteen doorbell interrupt bits that the *peer*
//! sets to raise an interrupt on this side (paper §II-A). Bits can be set,
//! cleared and masked; a masked bit still latches in the pending register
//! but does not raise an interrupt until unmasked — which is exactly the
//! semantics the model implements, including the interrupt replay on
//! unmask.
//!
//! The paper's protocol dedicates four vectors (§III-B1):
//! `DMAPUT`, `DMAGET`, `BARRIER_START`, `BARRIER_END`; `ntb-net` defines
//! the bits it uses, this module only models the register.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::error::{NtbError, Result};
use crate::timing::TimeModel;

/// Number of doorbell interrupt bits per port.
pub const DOORBELL_BITS: u32 = 16;

#[derive(Debug, Default)]
struct DoorbellState {
    /// Latched pending bits (set by the peer, cleared by the owner).
    pending: u32,
    /// Masked bits: latched but not delivered.
    mask: u32,
}

impl DoorbellState {
    fn deliverable(&self) -> u32 {
        self.pending & !self.mask
    }
}

/// The doorbell register file of one port. The owner waits on it and clears
/// bits; the peer rings bits through a cloned handle (hardware: a write to
/// the peer's `DB_SET` register crossing the bridge).
#[derive(Debug)]
pub struct Doorbell {
    state: Mutex<DoorbellState>,
    cond: Condvar,
    model: Arc<TimeModel>,
}

/// What a wait returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoorbellWaiter {
    /// Bits that were pending and unmasked when the wait completed.
    Fired(u32),
    /// The wait timed out with no deliverable bits.
    TimedOut,
}

impl Doorbell {
    /// New doorbell with no pending bits and nothing masked.
    pub fn new(model: Arc<TimeModel>) -> Arc<Self> {
        Arc::new(Doorbell {
            state: Mutex::new(DoorbellState::default()),
            cond: Condvar::new(),
            model,
        })
    }

    fn check_bit(bit: u32) -> Result<()> {
        if bit >= DOORBELL_BITS {
            return Err(NtbError::BadDoorbellBit { bit });
        }
        Ok(())
    }

    /// Peer side: ring doorbell `bit`. Charges the doorbell delivery
    /// latency, latches the bit and wakes waiters if it is unmasked.
    pub fn ring(&self, bit: u32) -> Result<()> {
        Self::check_bit(bit)?;
        self.model.delay(self.model.doorbell_latency);
        let mut st = self.state.lock();
        st.pending |= 1 << bit;
        if st.deliverable() != 0 {
            self.cond.notify_all();
        }
        Ok(())
    }

    /// Owner side: currently pending bits (masked ones included, as in the
    /// hardware pending register).
    pub fn pending(&self) -> u32 {
        self.state.lock().pending
    }

    /// Owner side: clear the given pending bits (write-1-to-clear).
    pub fn clear(&self, bits: u32) {
        let mut st = self.state.lock();
        st.pending &= !bits;
    }

    /// Owner side: mask the given bits (latch but do not deliver).
    pub fn mask(&self, bits: u32) {
        let mut st = self.state.lock();
        st.mask |= bits;
    }

    /// Owner side: unmask bits; if any of them were latched while masked,
    /// the interrupt fires now (hardware replays the MSI on unmask).
    pub fn unmask(&self, bits: u32) {
        let mut st = self.state.lock();
        st.mask &= !bits;
        if st.deliverable() != 0 {
            self.cond.notify_all();
        }
    }

    /// Current mask register.
    pub fn mask_bits(&self) -> u32 {
        self.state.lock().mask
    }

    /// Owner side: block until any of `interest` is pending and unmasked,
    /// or until `timeout` elapses (if given). Returns the deliverable
    /// subset *without clearing it* — the handler clears explicitly, as a
    /// real ISR acknowledges the hardware.
    pub fn wait(&self, interest: u32, timeout: Option<Duration>) -> DoorbellWaiter {
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        let mut st = self.state.lock();
        loop {
            let hits = st.deliverable() & interest;
            if hits != 0 {
                return DoorbellWaiter::Fired(hits);
            }
            match deadline {
                Some(d) => {
                    if self.cond.wait_until(&mut st, d).timed_out() {
                        let hits = st.deliverable() & interest;
                        return if hits != 0 {
                            DoorbellWaiter::Fired(hits)
                        } else {
                            DoorbellWaiter::TimedOut
                        };
                    }
                }
                None => self.cond.wait(&mut st),
            }
        }
    }

    /// Convenience: wait for a single bit and clear it on delivery.
    pub fn wait_and_clear(&self, bit: u32, timeout: Option<Duration>) -> Result<bool> {
        Self::check_bit(bit)?;
        match self.wait(1 << bit, timeout) {
            DoorbellWaiter::Fired(_) => {
                self.clear(1 << bit);
                Ok(true)
            }
            DoorbellWaiter::TimedOut => Ok(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn db() -> Arc<Doorbell> {
        Doorbell::new(Arc::new(TimeModel::zero()))
    }

    #[test]
    fn ring_sets_pending() {
        let d = db();
        d.ring(3).unwrap();
        assert_eq!(d.pending(), 1 << 3);
    }

    #[test]
    fn bad_bit_rejected() {
        let d = db();
        assert!(d.ring(DOORBELL_BITS).is_err());
        assert!(d.ring(DOORBELL_BITS - 1).is_ok());
    }

    #[test]
    fn clear_is_write_one_to_clear() {
        let d = db();
        d.ring(0).unwrap();
        d.ring(5).unwrap();
        d.clear(1 << 0);
        assert_eq!(d.pending(), 1 << 5);
    }

    #[test]
    fn wait_returns_immediately_if_pending() {
        let d = db();
        d.ring(2).unwrap();
        assert_eq!(d.wait(0xFFFF, None), DoorbellWaiter::Fired(1 << 2));
        // Not cleared by wait.
        assert_eq!(d.pending(), 1 << 2);
    }

    #[test]
    fn wait_times_out() {
        let d = db();
        let t0 = Instant::now();
        let r = d.wait(0xFFFF, Some(Duration::from_millis(20)));
        assert_eq!(r, DoorbellWaiter::TimedOut);
        assert!(t0.elapsed() >= Duration::from_millis(19));
    }

    #[test]
    fn wait_wakes_on_ring_from_other_thread() {
        let d = db();
        let d2 = Arc::clone(&d);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            d2.ring(7).unwrap();
        });
        let r = d.wait(1 << 7, Some(Duration::from_secs(5)));
        assert_eq!(r, DoorbellWaiter::Fired(1 << 7));
        h.join().unwrap();
    }

    #[test]
    fn masked_bit_latches_but_does_not_deliver() {
        let d = db();
        d.mask(1 << 4);
        d.ring(4).unwrap();
        assert_eq!(d.pending(), 1 << 4, "latched");
        let r = d.wait(1 << 4, Some(Duration::from_millis(10)));
        assert_eq!(r, DoorbellWaiter::TimedOut, "not delivered while masked");
    }

    #[test]
    fn unmask_replays_latched_interrupt() {
        let d = db();
        d.mask(1 << 4);
        d.ring(4).unwrap();
        let d2 = Arc::clone(&d);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            d2.unmask(1 << 4);
        });
        let r = d.wait(1 << 4, Some(Duration::from_secs(5)));
        assert_eq!(r, DoorbellWaiter::Fired(1 << 4));
        h.join().unwrap();
        assert_eq!(d.mask_bits(), 0);
    }

    #[test]
    fn wait_filters_by_interest() {
        let d = db();
        d.ring(1).unwrap();
        // Waiting on bit 2 only: bit 1 pending must not satisfy it.
        let r = d.wait(1 << 2, Some(Duration::from_millis(10)));
        assert_eq!(r, DoorbellWaiter::TimedOut);
        // But a combined wait sees bit 1.
        assert_eq!(d.wait((1 << 1) | (1 << 2), None), DoorbellWaiter::Fired(1 << 1));
    }

    #[test]
    fn wait_and_clear_clears() {
        let d = db();
        d.ring(9).unwrap();
        assert!(d.wait_and_clear(9, Some(Duration::from_millis(100))).unwrap());
        assert_eq!(d.pending(), 0);
        assert!(!d.wait_and_clear(9, Some(Duration::from_millis(5))).unwrap());
    }

    #[test]
    fn multiple_bits_delivered_together() {
        let d = db();
        d.ring(0).unwrap();
        d.ring(1).unwrap();
        match d.wait(0b11, None) {
            DoorbellWaiter::Fired(bits) => assert_eq!(bits, 0b11),
            other => panic!("unexpected {other:?}"),
        }
    }
}
