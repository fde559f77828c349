//! Store-and-forward queues: the bypass-buffer transmit path.
//!
//! A service thread must never block on an outbound slot ring while its
//! own inbound ring is full — with every host doing that, a loaded ring
//! deadlocks (the classic wormhole cycle). The paper's design avoids this
//! with its per-host **bypass buffer**: forwarded payloads are staged out
//! of the window into host memory and re-transmitted asynchronously. The
//! model mirrors that exactly: each link endpoint owns a [`ForwardQueue`]
//! consumed by a dedicated forwarder thread, so inbound frames are always
//! drained promptly and acknowledgements keep flowing.
//!
//! The queue is **bounded** (DESIGN.md §14): staging memory is part of
//! the bypass buffer's budget, and an unbounded queue just converts
//! overload into an out-of-memory kill some minutes later. A push against
//! a full queue is *shed* with a typed [`PushOutcome`], never silently
//! absorbed, and jobs whose deadline has already expired are shed at both
//! ends of the queue — there is no point paying wire time for a result
//! nobody is waiting for. High/low occupancy watermarks drive a
//! congestion bit the credit advertiser reads: above the high mark the
//! endpoint stops granting new credits to its peer sender, and grants
//! resume once the drain falls below the low mark (hysteresis keeps the
//! bit from flapping).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::frame::Frame;

/// One queued transmission.
#[derive(Debug)]
pub struct ForwardJob {
    /// Frame to send (seq is reassigned by the slot ring).
    pub frame: Frame,
    /// Staged payload bytes (the bypass-buffer copy), if the kind carries
    /// payload.
    pub payload: Option<Vec<u8>>,
    /// Modelled think time charged before transmitting (bypass forwarding
    /// delay, get-response pacing, retry backoff).
    pub think: Duration,
    /// Transmission attempts so far; a transiently failed send is
    /// re-dispatched until this reaches the retry budget, after which the
    /// frame is dropped (the origin's end-to-end retransmission recovers).
    pub attempts: u32,
}

/// What happened to a pushed job. Every non-`Queued` outcome means the
/// job was dropped — typed so the caller can count and trace the shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Enqueued; `depth` is the occupancy including this job.
    Queued {
        /// Queue depth right after the enqueue.
        depth: usize,
        /// The capacity bound in force at the enqueue (paired with
        /// `depth` so trace consumers see a consistent snapshot even if
        /// a resource fault shrinks the bound a microsecond later).
        capacity: usize,
    },
    /// The queue is at capacity: load shedding.
    ShedOverload {
        /// Occupancy at the time of the rejection.
        occupancy: usize,
        /// The advertised capacity that was hit.
        capacity: usize,
    },
    /// The job's deadline had already expired at `now_us`.
    ShedExpired,
    /// The network is shutting down.
    ShedShutdown,
}

impl PushOutcome {
    /// True when the job made it into the queue.
    pub fn queued(&self) -> bool {
        matches!(self, PushOutcome::Queued { .. })
    }
}

#[derive(Debug, Default)]
struct QueueState {
    jobs: VecDeque<ForwardJob>,
    shutdown: bool,
}

/// A bounded MPSC queue feeding one forwarder thread.
#[derive(Debug)]
pub struct ForwardQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
    /// Capacity bound; atomic so a resource fault can shrink it mid-run.
    capacity: AtomicUsize,
    /// Occupancy at/above which the congestion bit is raised.
    high_watermark: AtomicUsize,
    /// Occupancy at/below which the congestion bit clears.
    low_watermark: AtomicUsize,
    congested: AtomicBool,
}

impl ForwardQueue {
    /// Bounded queue; the watermarks default to 3/4 (high) and 1/2 (low)
    /// of `capacity`. Every transmit-path queue MUST carry a bound — the
    /// assert is the overload model's backstop against a future unbounded
    /// re-introduction.
    pub fn bounded(capacity: usize) -> Self {
        Self::with_watermarks(capacity, capacity * 3 / 4, capacity / 2)
    }

    /// Bounded queue with explicit congestion watermarks.
    pub fn with_watermarks(capacity: usize, high: usize, low: usize) -> Self {
        assert!(capacity > 0, "every transmit-path queue must be bounded (capacity >= 1)");
        let high = high.clamp(1, capacity);
        let low = low.min(high);
        ForwardQueue {
            state: Mutex::new(QueueState::default()),
            cond: Condvar::new(),
            capacity: AtomicUsize::new(capacity),
            high_watermark: AtomicUsize::new(high),
            low_watermark: AtomicUsize::new(low),
            congested: AtomicBool::new(false),
        }
    }

    /// Enqueue a job; wakes the forwarder. `now_us` is the current time
    /// in microseconds since the network epoch, used to shed work whose
    /// deadline already passed (0 disables the check for callers outside
    /// a network context).
    #[must_use = "a shed job must be counted, not ignored"]
    pub fn push(&self, job: ForwardJob, now_us: u32) -> PushOutcome {
        crate::lockdep_track!(&crate::lockdep::NET_FORWARD);
        if job.frame.deadline_expired(now_us) {
            return PushOutcome::ShedExpired;
        }
        let mut st = self.state.lock();
        if st.shutdown {
            return PushOutcome::ShedShutdown;
        }
        let capacity = self.capacity();
        if st.jobs.len() >= capacity {
            return PushOutcome::ShedOverload { occupancy: st.jobs.len(), capacity };
        }
        st.jobs.push_back(job);
        let depth = st.jobs.len();
        // lint: relaxed-ok(congestion hint computed under the queue lock; readers tolerate staleness)
        if depth >= self.high_watermark.load(Ordering::Relaxed) {
            // lint: relaxed-ok(advisory hint; the credit path re-checks before granting)
            self.congested.store(true, Ordering::Relaxed);
        }
        self.cond.notify_one();
        PushOutcome::Queued { depth, capacity }
    }

    /// Dequeue the next job; `None` once shut down *and* drained.
    pub fn pop(&self) -> Option<ForwardJob> {
        crate::lockdep_track!(&crate::lockdep::NET_FORWARD);
        let mut st = self.state.lock();
        loop {
            if let Some(job) = st.jobs.pop_front() {
                // lint: relaxed-ok(congestion hint computed under the queue lock; readers tolerate staleness)
                if st.jobs.len() <= self.low_watermark.load(Ordering::Relaxed) {
                    // lint: relaxed-ok(advisory hint; the credit path re-checks before granting)
                    self.congested.store(false, Ordering::Relaxed);
                }
                return Some(job);
            }
            if st.shutdown {
                return None;
            }
            self.cond.wait(&mut st);
        }
    }

    /// Begin shutdown: queued jobs still drain, new pushes are shed.
    pub fn shutdown(&self) {
        crate::lockdep_track!(&crate::lockdep::NET_FORWARD);
        let mut st = self.state.lock();
        st.shutdown = true;
        self.cond.notify_all();
    }

    /// Jobs currently queued.
    pub fn depth(&self) -> usize {
        self.state.lock().jobs.len()
    }

    /// The current capacity bound.
    pub fn capacity(&self) -> usize {
        // lint: relaxed-ok(single counter read; push validates under the queue lock)
        self.capacity.load(Ordering::Relaxed)
    }

    /// Shrink (or grow) the bound mid-run — the `ShrinkForwardQueue`
    /// resource fault. Watermarks are re-derived from the new capacity;
    /// jobs already queued above the new bound stay and drain normally,
    /// but no new job is admitted until occupancy falls below it.
    pub fn set_capacity(&self, capacity: usize) {
        assert!(capacity > 0, "every transmit-path queue must be bounded (capacity >= 1)");
        // Take the lock so a concurrent push sees a consistent
        // capacity/watermark set.
        let st = self.state.lock();
        // lint: relaxed-ok(written under the queue lock; lone readers tolerate staleness)
        self.capacity.store(capacity, Ordering::Relaxed);
        // lint: relaxed-ok(written under the queue lock; lone readers tolerate staleness)
        self.high_watermark.store((capacity * 3 / 4).max(1), Ordering::Relaxed);
        // lint: relaxed-ok(written under the queue lock; lone readers tolerate staleness)
        self.low_watermark.store(capacity / 2, Ordering::Relaxed);
        if st.jobs.len() >= (capacity * 3 / 4).max(1) {
            // lint: relaxed-ok(advisory hint; the credit path re-checks before granting)
            self.congested.store(true, Ordering::Relaxed);
        }
    }

    /// True while occupancy sits above the high watermark (hysteresis:
    /// clears only once the drain reaches the low watermark). The credit
    /// advertiser withholds new grants while this is set.
    pub fn congested(&self) -> bool {
        // lint: relaxed-ok(advisory hint; the credit path re-checks before granting)
        self.congested.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntb_sim::TransferMode;
    use std::sync::Arc;

    fn job(n: u32) -> ForwardJob {
        ForwardJob {
            frame: Frame::put(0, 1, n, 0, 0, TransferMode::Dma),
            payload: Some(vec![0u8; n as usize]),
            think: Duration::ZERO,
            attempts: 0,
        }
    }

    fn expired_job(n: u32, deadline_us: u32) -> ForwardJob {
        ForwardJob {
            frame: Frame::put(0, 1, n, 0, 0, TransferMode::Dma).with_deadline_us(deadline_us),
            payload: None,
            think: Duration::ZERO,
            attempts: 0,
        }
    }

    #[test]
    fn fifo_order() {
        let q = ForwardQueue::bounded(8);
        assert!(q.push(job(1), 0).queued());
        assert!(q.push(job(2), 0).queued());
        assert!(q.push(job(3), 0).queued());
        assert_eq!(q.depth(), 3);
        assert_eq!(q.pop().unwrap().frame.len, 1);
        assert_eq!(q.pop().unwrap().frame.len, 2);
        assert_eq!(q.pop().unwrap().frame.len, 3);
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(ForwardQueue::bounded(8));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop().unwrap().frame.len);
        std::thread::sleep(Duration::from_millis(10));
        assert!(q.push(job(42), 0).queued());
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn shutdown_drains_then_ends() {
        let q = ForwardQueue::bounded(8);
        assert!(q.push(job(7), 0).queued());
        q.shutdown();
        assert_eq!(q.pop().unwrap().frame.len, 7);
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_after_shutdown_shed() {
        let q = ForwardQueue::bounded(8);
        q.shutdown();
        assert_eq!(q.push(job(1), 0), PushOutcome::ShedShutdown);
        assert_eq!(q.depth(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn shutdown_wakes_blocked_pop() {
        let q = Arc::new(ForwardQueue::bounded(8));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop().is_none());
        std::thread::sleep(Duration::from_millis(10));
        q.shutdown();
        assert!(h.join().unwrap());
    }

    #[test]
    fn full_queue_sheds_with_typed_outcome() {
        let q = ForwardQueue::bounded(2);
        assert!(q.push(job(1), 0).queued());
        assert!(q.push(job(2), 0).queued());
        assert_eq!(q.push(job(3), 0), PushOutcome::ShedOverload { occupancy: 2, capacity: 2 });
        assert_eq!(q.depth(), 2);
        // Draining one makes room again.
        q.pop().unwrap();
        assert!(q.push(job(3), 0).queued());
    }

    #[test]
    fn expired_job_shed_at_push() {
        let q = ForwardQueue::bounded(4);
        assert_eq!(q.push(expired_job(1, 100), 200), PushOutcome::ShedExpired);
        // Same deadline still in the future: admitted.
        assert!(q.push(expired_job(1, 100), 50).queued());
        // No deadline (0): never sheds regardless of the clock.
        assert!(q.push(job(2), u32::MAX).queued());
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn watermarks_drive_congestion_hysteresis() {
        let q = ForwardQueue::with_watermarks(4, 3, 1);
        assert!(!q.congested());
        assert!(q.push(job(1), 0).queued());
        assert!(q.push(job(2), 0).queued());
        assert!(!q.congested());
        assert!(q.push(job(3), 0).queued()); // depth 3 = high mark
        assert!(q.congested());
        q.pop().unwrap(); // depth 2: still above low mark
        assert!(q.congested());
        q.pop().unwrap(); // depth 1 = low mark: clears
        assert!(!q.congested());
    }

    #[test]
    fn capacity_shrink_applies_to_future_pushes() {
        let q = ForwardQueue::bounded(8);
        for i in 0..4 {
            assert!(q.push(job(i), 0).queued());
        }
        q.set_capacity(2);
        assert_eq!(q.capacity(), 2);
        // Over the new bound: shed, but the queued backlog survives.
        assert_eq!(q.push(job(9), 0), PushOutcome::ShedOverload { occupancy: 4, capacity: 2 });
        assert_eq!(q.depth(), 4);
        for _ in 0..3 {
            q.pop().unwrap();
        }
        assert!(q.push(job(9), 0).queued());
    }

    #[test]
    #[should_panic(expected = "must be bounded")]
    fn zero_capacity_rejected() {
        let _ = ForwardQueue::bounded(0);
    }
}
