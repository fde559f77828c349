//! Credit-based flow control and the retransmission token bucket.
//!
//! Under overload the failure mode to avoid is *unbounded memory*: a slow
//! receiver whose peer keeps staging frames grows queues until the host
//! dies long after the link itself stopped being useful. The overload
//! design (DESIGN.md §14) bounds every queue and makes the sender stop at
//! the source instead:
//!
//! * [`CreditGate`] — the receiver advertises a **cumulative** credit
//!   grant (one credit = one staged frame) through the control slot's
//!   credit word; the sender consumes one credit per staged frame and
//!   stops staging when none remain. Both
//!   counters only grow, so a re-read of a stale grant is harmless and
//!   conservation is checkable: `granted == consumed + available`.
//!   The receiver grants back only frames that consumed a credit, so a
//!   grant above `consumed + window` is corrupt (a flipped byte in the
//!   credit word); the gate caps it, and at
//!   most one window of credits is ever available.
//!   The credit word is one aligned 32-bit cell, written with one atomic
//!   store through the window ([`write_credit_word`]) and read with one
//!   atomic load ([`read_credit_word`]), so the sender never reads half
//!   of an update.
//! * [`RetryBudget`] — a token bucket bounding retransmissions per link.
//!   Retries are the classic congestion amplifier (every lost frame
//!   becomes N frames); when the bucket runs dry the sweeper sheds the
//!   retransmission with a typed event instead of piling on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ntb_sim::{OutgoingWindow, Region, Result, TransferMode};
use parking_lot::Mutex;

/// Publish the cumulative grant `total` into the peer's credit word at
/// `off`: one atomic 32-bit store through the window (saturating at
/// `u32::MAX`). A `memcpy` could land the word as several stores, and a
/// sender reading between them would see a grant that was never made.
pub fn write_credit_word(window: &OutgoingWindow, off: u64, total: u64) -> Result<()> {
    let wire = u32::try_from(total).unwrap_or(u32::MAX);
    window.write_u32(off, wire, TransferMode::Memcpy)
}

/// Read the credit word at `off` of this side's own incoming `region`
/// with one atomic load. `None` until the peer first writes it (zero
/// means "never written": real totals start at the credit window).
pub fn read_credit_word(region: &Region, off: u64) -> Option<u64> {
    match region.load_u32(off) {
        Ok(0) | Err(_) => None,
        Ok(wire) => Some(u64::from(wire)),
    }
}

/// Sender-side view of the peer's cumulative credit grant.
///
/// Both counters are cumulative and monotonic, mirroring how the grant
/// travels on the wire (an absolute value, not a delta), so duplicated or
/// reordered advertisements never double-count.
#[derive(Debug)]
pub struct CreditGate {
    /// Total credits the peer has ever granted us.
    granted: AtomicU64,
    /// Total credits we have ever consumed.
    consumed: AtomicU64,
    /// The credit window: the most credits ever available at once.
    window: u64,
}

impl CreditGate {
    /// A gate pre-loaded with `window` credits (the configured credit
    /// window, granted implicitly at link bring-up).
    pub fn new(window: u64) -> Self {
        CreditGate { granted: AtomicU64::new(window), consumed: AtomicU64::new(0), window }
    }

    /// Absorb a cumulative grant advertisement from the peer. Stale or
    /// reordered values (≤ the current grant) are ignored, and a value
    /// above `consumed + window`, which no receiver can have granted, is
    /// capped there: a corrupted word cannot switch flow control off.
    /// Returns the cap when it clipped the grant.
    pub fn advertise(&self, cumulative: u64) -> Option<u64> {
        let bound = self.consumed_total() + self.window;
        // lint: relaxed-ok(monotonic max over a cumulative counter; the fetch_max resolves races)
        self.granted.fetch_max(cumulative.min(bound), Ordering::Relaxed);
        (cumulative > bound).then_some(bound)
    }

    /// Credits currently available to spend.
    pub fn available(&self) -> u64 {
        // lint: relaxed-ok(advisory snapshot; try_consume re-validates under CAS)
        let granted = self.granted.load(Ordering::Relaxed);
        // lint: relaxed-ok(advisory snapshot; try_consume re-validates under CAS)
        let consumed = self.consumed.load(Ordering::Relaxed);
        granted.saturating_sub(consumed)
    }

    /// Consume one credit; `false` (and no state change) when none are
    /// available.
    pub fn try_consume(&self) -> bool {
        // lint: relaxed-ok(CAS loop on a single counter; no other data is published by the consume)
        let mut consumed = self.consumed.load(Ordering::Relaxed);
        loop {
            // lint: relaxed-ok(cumulative grant only grows; a stale read just retries)
            let granted = self.granted.load(Ordering::Relaxed);
            if consumed >= granted {
                return false;
            }
            match self.consumed.compare_exchange_weak(
                consumed,
                consumed + 1,
                Ordering::Relaxed, // lint: relaxed-ok(CAS on a single counter; nothing else published)
                Ordering::Relaxed, // lint: relaxed-ok(failure path just re-reads the counter)
            ) {
                Ok(_) => return true,
                Err(actual) => consumed = actual,
            }
        }
    }

    /// Return one consumed credit. Used when a consumed credit's frame
    /// never left this host (the send itself failed): the receiver will
    /// never see — and therefore never re-grant — that frame, so without
    /// the refund every local send failure would leak one credit forever.
    /// `consumed` is sender-local (only `granted` travels on the wire),
    /// so decrementing it keeps conservation intact.
    pub fn refund(&self) {
        // lint: relaxed-ok(single counter adjustment; no other data is published)
        self.consumed.fetch_sub(1, Ordering::Relaxed);
    }

    /// Total credits ever granted (diagnostics, trace events).
    pub fn granted_total(&self) -> u64 {
        // lint: relaxed-ok(diagnostic counter read)
        self.granted.load(Ordering::Relaxed)
    }

    /// Total credits ever consumed (diagnostics, trace events).
    pub fn consumed_total(&self) -> u64 {
        // lint: relaxed-ok(diagnostic counter read)
        self.consumed.load(Ordering::Relaxed)
    }
}

/// Receiver-side cumulative grant ledger: how many credits this endpoint
/// has advertised to its peer sender.
#[derive(Debug, Default)]
pub struct CreditLedger {
    granted: AtomicU64,
}

impl CreditLedger {
    /// Ledger starting at `initial` (the implicit bring-up window; must
    /// match the sender gate's initial value so the wire value stays
    /// cumulative).
    pub fn new(initial: u64) -> Self {
        CreditLedger { granted: AtomicU64::new(initial) }
    }

    /// Grant `n` more credits; returns the new cumulative total to put on
    /// the wire.
    pub fn grant(&self, n: u64) -> u64 {
        // lint: relaxed-ok(cumulative counter; the wire carries the returned absolute value)
        self.granted.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Cumulative total granted so far.
    pub fn total(&self) -> u64 {
        // lint: relaxed-ok(diagnostic counter read)
        self.granted.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct BucketState {
    tokens: f64,
    last_refill: Instant,
}

/// Token-bucket retry budget: `rate` tokens per second, holding at most
/// `burst`. Each retransmission spends one token; an empty bucket means
/// the retry is shed (typed, counted — never silent).
#[derive(Debug)]
pub struct RetryBudget {
    rate: f64,
    burst: f64,
    state: Mutex<BucketState>,
}

impl RetryBudget {
    /// Budget refilling at `rate` tokens/second with `burst` capacity
    /// (also the initial fill).
    pub fn new(rate: f64, burst: u32) -> Self {
        assert!(rate > 0.0 && burst >= 1, "retry budget needs a positive rate and burst");
        RetryBudget {
            rate,
            burst: f64::from(burst),
            state: Mutex::new(BucketState {
                tokens: f64::from(burst),
                last_refill: Instant::now(),
            }),
        }
    }

    /// Spend one token; `false` when the bucket is empty.
    pub fn try_spend(&self) -> bool {
        crate::lockdep_track!(&crate::lockdep::NET_RETRY_BUDGET);
        let mut st = self.state.lock();
        let now = Instant::now();
        let elapsed = now.duration_since(st.last_refill);
        st.last_refill = now;
        st.tokens = (st.tokens + elapsed.as_secs_f64() * self.rate).min(self.burst);
        if st.tokens >= 1.0 {
            st.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently in the bucket (diagnostics; racy by nature).
    pub fn tokens(&self) -> f64 {
        crate::lockdep_track!(&crate::lockdep::NET_RETRY_BUDGET);
        self.state.lock().tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;

    #[test]
    fn gate_consumes_down_to_zero_then_blocks() {
        let gate = CreditGate::new(3);
        assert_eq!(gate.available(), 3);
        assert!(gate.try_consume());
        assert!(gate.try_consume());
        assert!(gate.try_consume());
        assert!(!gate.try_consume());
        assert_eq!(gate.available(), 0);
        gate.advertise(4); // one more credit (cumulative)
        assert!(gate.try_consume());
        assert!(!gate.try_consume());
    }

    #[test]
    fn stale_advertisement_is_ignored() {
        let gate = CreditGate::new(10);
        gate.advertise(4); // stale: below the bring-up window
        assert_eq!(gate.available(), 10);
        assert!(gate.try_consume() && gate.try_consume());
        gate.advertise(12);
        assert_eq!(gate.available(), 10);
        gate.advertise(11); // reordered behind 12
        assert_eq!(gate.granted_total(), 12);
    }

    #[test]
    fn ledger_and_gate_stay_cumulative() {
        let ledger = CreditLedger::new(8);
        let gate = CreditGate::new(8);
        for _ in 0..4 {
            assert!(gate.try_consume());
        }
        let wire = ledger.grant(4);
        assert_eq!(gate.advertise(wire), None, "an honest grant is never clipped");
        assert_eq!(gate.available(), 8);
        assert_eq!(ledger.total(), 12);
        assert_eq!(gate.granted_total(), 12);
    }

    /// A flipped byte in the credit word reads as a huge cumulative
    /// grant. The gate caps it at
    /// `consumed + window`, so flow control stays on.
    #[test]
    fn forged_credit_word_cannot_exceed_the_window() {
        use ntb_sim::Region;
        const WINDOW: u64 = 8;
        const OFF: u64 = 4;
        let gate = CreditGate::new(WINDOW);
        let ledger = CreditLedger::new(WINDOW);
        for _ in 0..5 {
            assert!(gate.try_consume());
        }
        let region = Region::anonymous(64);
        // The receiver absorbed three of the five frames and granted them.
        let total = ledger.grant(3);
        region.write(OFF, &u32::try_from(total).unwrap().to_le_bytes()).unwrap();
        assert_eq!(gate.advertise(read_credit_word(&region, OFF).unwrap()), None);
        assert_eq!(gate.available(), 6);
        for flipped in 0..4u64 {
            let mut bytes = u32::try_from(total).unwrap().to_le_bytes();
            bytes[flipped as usize] ^= 0xFF;
            region.write(OFF, &bytes).unwrap();
            let forged = read_credit_word(&region, OFF).unwrap();
            let clipped = gate.advertise(forged);
            assert_eq!(clipped.is_some(), forged > 5 + WINDOW, "byte {flipped}: clip reported");
            assert!(gate.available() <= WINDOW, "byte {flipped}: {} credits", gate.available());
        }
        assert_eq!(gate.granted_total(), gate.consumed_total() + gate.available());
    }

    /// Property: under random interleavings of grants and consumes,
    /// credits are conserved — `granted == consumed + available` — and
    /// consumption never exceeds the grant.
    #[test]
    fn credit_conservation_under_random_interleavings() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
        for _ in 0..200 {
            let initial = rng.random_range(0..16u64);
            let gate = CreditGate::new(initial);
            let ledger = CreditLedger::new(initial);
            let mut expected_consumed = 0u64;
            for _ in 0..rng.random_range(1..64u32) {
                match rng.random_range(0..3u32) {
                    0 => {
                        // The receiver grants back some of the frames that
                        // consumed a credit and have not been granted yet.
                        let owed = expected_consumed + initial - ledger.total();
                        let wire = ledger.grant(rng.random_range(0..5u64).min(owed));
                        gate.advertise(wire);
                    }
                    1 => {
                        // Replay a stale advertisement (wire reordering).
                        gate.advertise(ledger.total().saturating_sub(rng.random_range(0..3u64)));
                    }
                    _ => {
                        if gate.try_consume() {
                            expected_consumed += 1;
                        }
                    }
                }
                let granted = gate.granted_total();
                let consumed = gate.consumed_total();
                assert!(consumed <= granted, "consumed {consumed} > granted {granted}");
                assert_eq!(granted, consumed + gate.available(), "credit conservation violated");
                assert!(gate.available() <= initial, "more than a window available");
            }
            assert_eq!(gate.consumed_total(), expected_consumed);
            assert_eq!(gate.granted_total(), ledger.total());
        }
    }

    /// The same conservation property under genuine thread concurrency:
    /// one granter returning every consumed credit, two consumers
    /// hammering the gate.
    #[test]
    fn credit_conservation_under_threads() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        const WINDOW: u64 = 4;
        let gate = Arc::new(CreditGate::new(WINDOW));
        let ledger = Arc::new(CreditLedger::new(WINDOW));
        let done = Arc::new(AtomicBool::new(false));
        let granter = {
            let (gate, ledger, done) = (Arc::clone(&gate), Arc::clone(&ledger), Arc::clone(&done));
            std::thread::spawn(move || loop {
                let finished = done.load(Ordering::SeqCst);
                let owed = gate.consumed_total() + WINDOW - ledger.total();
                if owed > 0 {
                    gate.advertise(ledger.grant(owed));
                } else if finished {
                    return;
                }
                std::thread::yield_now();
            })
        };
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    // Bounded by the granter, which returns every
                    // consumed credit.
                    let mut got = 0u64;
                    while got < 500 {
                        if gate.try_consume() {
                            got += 1;
                        }
                        assert!(gate.available() <= WINDOW);
                        std::thread::yield_now();
                    }
                    got
                })
            })
            .collect();
        let consumed_by_threads: u64 = consumers.into_iter().map(|h| h.join().unwrap()).sum();
        done.store(true, Ordering::SeqCst);
        granter.join().unwrap();
        assert_eq!(gate.consumed_total(), consumed_by_threads);
        assert_eq!(gate.granted_total(), gate.consumed_total() + gate.available());
        assert_eq!(gate.granted_total(), ledger.total());
        assert_eq!(gate.available(), WINDOW);
    }

    /// The credit word is written by the receiver while the sender reads
    /// it. The two values differ in three of their four bytes, so a read
    /// that saw half of an update would return neither of them.
    #[test]
    fn credit_word_is_never_read_half_written() {
        use ntb_sim::{connect_ports, HostMemory, PortConfig, TimeModel};
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        const A: u64 = 0x0000_FFFF;
        const B: u64 = 0x0001_0000;
        const OFF: u64 = 12;
        let writes = if cfg!(miri) { 200 } else { 20_000 };
        let (ma, mb) = (HostMemory::new(0, 1 << 20), HostMemory::new(1, 1 << 20));
        let (a, b) = connect_ports(
            PortConfig::new(0, 1).with_window_size(4096),
            PortConfig::new(1, 0).with_window_size(4096),
            &ma,
            &mb,
            Arc::new(TimeModel::zero()),
        )
        .unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let writer = {
            let (a, done) = (Arc::clone(&a), Arc::clone(&done));
            std::thread::spawn(move || {
                for i in 0..writes {
                    write_credit_word(a.outgoing(), OFF, if i % 2 == 0 { A } else { B }).unwrap();
                }
                done.store(true, Ordering::SeqCst);
            })
        };
        let mut reads = 0u64;
        while !done.load(Ordering::SeqCst) {
            let got = read_credit_word(b.incoming().region(), OFF);
            assert!(matches!(got, None | Some(A) | Some(B)), "mixed credit word {got:x?}");
            reads += 1;
        }
        writer.join().unwrap();
        assert_eq!(read_credit_word(b.incoming().region(), OFF), Some(B));
        assert!(reads > 0);
    }

    #[test]
    fn refund_restores_a_failed_sends_credit() {
        let gate = CreditGate::new(1);
        assert!(gate.try_consume());
        assert!(!gate.try_consume());
        gate.refund();
        assert_eq!(gate.available(), 1);
        assert!(gate.try_consume());
        assert_eq!(gate.granted_total(), gate.consumed_total() + gate.available());
    }

    #[test]
    fn budget_burst_then_dry() {
        let b = RetryBudget::new(0.000_001, 3); // effectively no refill
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(!b.try_spend());
        assert!(!b.try_spend());
    }

    #[test]
    fn budget_refills_over_time() {
        let b = RetryBudget::new(1000.0, 2);
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(!b.try_spend());
        std::thread::sleep(Duration::from_millis(10));
        assert!(b.try_spend(), "10ms at 1000 tokens/s must refill at least one token");
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn zero_rate_rejected() {
        let _ = RetryBudget::new(0.0, 1);
    }
}
