//! The one retransmission timer: a round-trip estimator per destination
//! PE (RFC 6298), and the doubling schedule every retry wait follows
//! (DESIGN.md §9).
//!
//! * SRTT and RTTVAR come from put acks and get/AMO responses. Karn's
//!   rule: a retransmitted operation is never sampled, and a backed-off
//!   timeout stays in force until the next clean sample.
//! * RTO = clamp(SRTT + 4·RTTVAR, `min_rto`, `max_rto`), `min_rto` before
//!   the first sample, doubled per timeout of a transmission that left
//!   this host, up to `max_rto` ([`schedule`]).
//! * Like TCP's one timer per connection, any ack or response restarts
//!   every outstanding operation's timer: a flat collective sends each
//!   destination one put, so only the other acks show the fabric moving.
//!   The restart is bounded to `max_rto` past the transmission, so a put
//!   lost toward a quiet destination is due within one RTO plus
//!   `max_rto` however busy the others keep the host
//!   ([`RtoTable::deadline`]).
//! * Link-local waits (a refused doorbell, a missed interrupt) cross one
//!   link and have no round trip to sample: the same schedule from an
//!   eighth of the floor ([`local_wait`]).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::config::RetryPolicy;

/// `base` doubled `attempt` times, capped at the policy's `max_rto`.
pub fn schedule(policy: &RetryPolicy, base: Duration, attempt: u32) -> Duration {
    let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
    base.checked_mul(factor).map_or(policy.max_rto, |d| d.min(policy.max_rto))
}

/// Wait `attempt` (0-based) of a link-local retry loop: doubling from an
/// eighth of `min_rto` (25 ms at the default 200 ms).
pub fn local_wait(policy: &RetryPolicy, attempt: u32) -> Duration {
    schedule(policy, policy.min_rto / 8, attempt)
}

/// One destination's estimator.
#[derive(Debug, Default)]
struct DestTimer {
    /// SRTT (high half) and RTTVAR (low half) in µs, one word so a sample
    /// updates both at once; 0 = never sampled.
    estimate: AtomicU64,
    /// Doublings in force since the last clean sample (Karn).
    backoff: AtomicU32,
}

/// Per-destination retransmission timers of one host.
#[derive(Debug)]
pub struct RtoTable {
    policy: RetryPolicy,
    epoch: Instant,
    /// When an ack or a response last arrived, in µs since `epoch`;
    /// 0 = never.
    progress_us: AtomicU64,
    dests: Vec<DestTimer>,
}

impl RtoTable {
    /// Timers toward `hosts` destinations, all at `policy.min_rto`.
    pub fn new(policy: RetryPolicy, hosts: usize) -> Self {
        RtoTable {
            policy,
            epoch: Instant::now(),
            progress_us: AtomicU64::new(0),
            dests: (0..hosts).map(|_| DestTimer::default()).collect(),
        }
    }

    /// The policy the timers are bounded by.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The timeout toward `dest` of an operation whose timer doubled
    /// `doublings` times (or as often as the back-off in force demands).
    pub fn rto(&self, dest: usize, doublings: u32) -> Duration {
        let d = &self.dests[dest];
        let base = match d.estimate.load(Ordering::SeqCst) {
            0 => self.policy.min_rto,
            word => {
                let (srtt, rttvar) = (word >> 32, word & u64::from(u32::MAX));
                Duration::from_micros(srtt + 4 * rttvar)
                    .clamp(self.policy.min_rto, self.policy.max_rto)
            }
        };
        schedule(&self.policy, base, doublings.max(d.backoff.load(Ordering::SeqCst)))
    }

    /// When an operation toward `dest`, last transmitted at `sent` with
    /// its timer doubled `doublings` times, is overdue: one RTO after the
    /// later of that transmission and the last ack or response, but no
    /// later than one RTO plus `max_rto` after the transmission.
    pub fn deadline(&self, dest: usize, sent: Instant, doublings: u32) -> Instant {
        let rto = self.rto(dest, doublings);
        let since = match self.progress_us.load(Ordering::SeqCst) {
            0 => sent,
            us => (self.epoch + Duration::from_micros(us)).clamp(sent, sent + self.policy.max_rto),
        };
        since + rto
    }

    /// An ack or a response arrived (duplicates included): every
    /// outstanding operation's timer restarts.
    pub fn progress(&self) {
        let us = u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX).max(1);
        self.progress_us.fetch_max(us, Ordering::SeqCst);
    }

    /// A clean round trip `rtt` to `dest` (RFC 6298 §2.2–2.3, α = 1/8,
    /// β = 1/4); clears the back-off.
    pub fn sample(&self, dest: usize, rtt: Duration) {
        let d = &self.dests[dest];
        let r = u64::try_from(rtt.as_micros()).unwrap_or(u64::MAX).clamp(1, u64::from(u32::MAX));
        let pack = |srtt: u64, rttvar: u64| (srtt << 32) | rttvar.min(u64::from(u32::MAX));
        let _ = d.estimate.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |word| {
            Some(match word {
                0 => pack(r, r / 2),
                word => {
                    let (srtt, rttvar) = (word >> 32, word & u64::from(u32::MAX));
                    pack((7 * srtt + r) / 8, (3 * rttvar + srtt.abs_diff(r)) / 4)
                }
            })
        });
        d.backoff.store(0, Ordering::SeqCst);
        self.progress();
    }

    /// A timer toward `dest` expired and now stands at `doublings`: later
    /// first transmissions wait as long, until the next clean sample.
    pub fn back_off(&self, dest: usize, doublings: u32) {
        self.dests[dest].backoff.fetch_max(doublings, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(min_ms: u64, max_ms: u64) -> RetryPolicy {
        RetryPolicy {
            min_rto: Duration::from_millis(min_ms),
            max_rto: Duration::from_millis(max_ms),
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn schedule_doubles_and_caps() {
        let p = policy(80, 100);
        let ms = |a| local_wait(&p, a).as_millis();
        assert_eq!([ms(0), ms(1), ms(2), ms(3), ms(4), ms(99)], [10, 20, 40, 80, 100, 100]);
        let ms = |a| schedule(&p, p.min_rto, a).as_millis();
        assert_eq!([ms(0), ms(1), ms(31)], [80, 100, 100]);
    }

    #[test]
    fn unsampled_timer_starts_at_the_floor() {
        let t = RtoTable::new(policy(200, 1600), 2);
        assert_eq!(t.rto(1, 0), Duration::from_millis(200));
        assert_eq!(t.rto(1, 2), Duration::from_millis(800));
    }

    #[test]
    fn samples_follow_rfc6298() {
        let t = RtoTable::new(policy(1, 10_000), 2);
        // First sample: SRTT = R, RTTVAR = R/2, RTO = 3R.
        t.sample(1, Duration::from_millis(100));
        assert_eq!(t.rto(1, 0), Duration::from_millis(300));
        // Second: RTTVAR = 3/4·50 + 1/4·|100−60| = 47.5, SRTT = 95.
        t.sample(1, Duration::from_millis(60));
        assert_eq!(t.rto(1, 0), Duration::from_micros(95_000 + 4 * 47_500));
        // Destinations are independent.
        assert_eq!(t.rto(0, 0), Duration::from_millis(1));
        // The floor and the ceiling clamp the learned value.
        let clamped = RtoTable::new(policy(200, 250), 1);
        clamped.sample(0, Duration::from_millis(1));
        assert_eq!(clamped.rto(0, 0), Duration::from_millis(200));
        clamped.sample(0, Duration::from_secs(5));
        assert_eq!(clamped.rto(0, 0), Duration::from_millis(250));
    }

    #[test]
    fn back_off_holds_until_a_clean_sample() {
        let t = RtoTable::new(policy(10, 10_000), 1);
        t.back_off(0, 2);
        t.back_off(0, 1); // never lowers a back-off in force
        assert_eq!(t.rto(0, 0), Duration::from_millis(40), "fresh sends inherit the back-off");
        assert_eq!(t.rto(0, 3), Duration::from_millis(80), "a longer own timer doubles further");
        t.sample(0, Duration::from_millis(4));
        assert_eq!(t.rto(0, 0), Duration::from_millis(12), "3 × 4 ms once sampled");
    }

    #[test]
    fn progress_restarts_the_timer() {
        let t = RtoTable::new(policy(50, 50), 2);
        let sent = Instant::now() - Duration::from_millis(40);
        assert_eq!(t.deadline(1, sent, 0), sent + Duration::from_millis(50));
        t.progress();
        for dest in 0..2 {
            let restarted = t.deadline(dest, sent, 0);
            assert!(restarted >= sent + Duration::from_millis(80), "one RTO after the progress");
        }
    }

    #[test]
    fn progress_holds_a_timer_back_by_the_ceiling_at_most() {
        // Acks from other destinations keep arriving long after a put
        // toward dest 1 was lost: it still falls due one RTO plus the
        // ceiling after it was sent.
        let t = RtoTable::new(policy(50, 120), 2);
        let sent = Instant::now() - Duration::from_millis(500);
        t.progress();
        assert_eq!(t.deadline(1, sent, 0), sent + Duration::from_millis(170));
        assert!(t.deadline(1, sent, 0) <= Instant::now(), "overdue despite the progress");
    }
}
