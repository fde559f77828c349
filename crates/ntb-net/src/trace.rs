//! Protocol event tracing.
//!
//! Debugging a distributed protocol from printouts is miserable; this
//! module records per-host protocol events (frames sent/handled,
//! forwards, deliveries, barrier doorbells) with microsecond timestamps
//! and exports them in the Chrome tracing format (`chrome://tracing`,
//! Perfetto) so a whole run can be inspected on a timeline.
//!
//! Tracing is off by default and costs one relaxed atomic load per hook
//! when disabled.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A frame left this host through a transmit slot ring.
    FrameSent,
    /// A frame was decoded by a service thread.
    FrameHandled,
    /// A frame was staged and re-queued for the next hop.
    Forwarded,
    /// A put chunk was copied into the local symmetric space.
    PutDelivered,
    /// A get request was served from the local symmetric space.
    GetServed,
    /// An atomic executed at this host.
    AmoServed,
    /// A put acknowledgement returned to this origin.
    AckReceived,
    /// A barrier doorbell was rung towards a neighbour.
    BarrierSignal,
}

impl TraceKind {
    /// Chrome-trace event name.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::FrameSent => "frame_sent",
            TraceKind::FrameHandled => "frame_handled",
            TraceKind::Forwarded => "forwarded",
            TraceKind::PutDelivered => "put_delivered",
            TraceKind::GetServed => "get_served",
            TraceKind::AmoServed => "amo_served",
            TraceKind::AckReceived => "ack_received",
            TraceKind::BarrierSignal => "barrier_signal",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Microseconds since the tracer was enabled.
    pub t_us: f64,
    /// Host the event occurred on.
    pub host: usize,
    /// Event kind.
    pub kind: TraceKind,
    /// Originating host of the frame involved (if any).
    pub src: usize,
    /// Destination host of the frame involved (if any).
    pub dest: usize,
    /// Payload length in bytes (0 for control traffic).
    pub len: u32,
}

/// A per-host event recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    events: Mutex<Vec<TraceRecord>>,
    /// Hard cap so a runaway trace cannot eat the heap.
    capacity: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(1 << 20)
    }
}

impl Tracer {
    /// A disabled tracer holding at most `capacity` events once enabled.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            capacity,
        }
    }

    /// Start recording (idempotent). Events are timestamped relative to
    /// the tracer's creation, so multi-host records share a clock.
    pub fn enable(&self) {
        // lint: relaxed-ok(advisory fast-path flag; a racing record may miss at most the
        // enabling edge, which tests bracket with barriers anyway)
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stop recording.
    pub fn disable(&self) {
        // lint: relaxed-ok(advisory fast-path flag, see enable)
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        // lint: relaxed-ok(advisory fast-path flag, see enable)
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record an event (no-op while disabled or at capacity).
    pub fn record(&self, host: usize, kind: TraceKind, src: usize, dest: usize, len: u32) {
        if !self.is_enabled() {
            return;
        }
        let t_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let mut ev = self.events.lock();
        if ev.len() < self.capacity {
            ev.push(TraceRecord { t_us, host, kind, src, dest, len });
        }
    }

    /// Take all recorded events (clears the buffer).
    pub fn take(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut *self.events.lock())
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

/// Render records as a Chrome tracing JSON array (each record an instant
/// event; `pid` is the host, so each host gets its own track).
pub fn to_chrome_json(records: &[TraceRecord]) -> String {
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            r#"{{"name":"{}","ph":"i","s":"p","ts":{:.3},"pid":{},"tid":0,"args":{{"src":{},"dest":{},"len":{}}}}}"#,
            r.kind.name(),
            r.t_us,
            r.host,
            r.src,
            r.dest,
            r.len
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::new(16);
        t.record(0, TraceKind::FrameSent, 0, 1, 100);
        assert!(t.is_empty());
    }

    #[test]
    fn enabled_records_in_order() {
        let t = Tracer::new(16);
        t.enable();
        t.record(0, TraceKind::FrameSent, 0, 1, 100);
        t.record(1, TraceKind::FrameHandled, 0, 1, 100);
        let ev = t.take();
        assert_eq!(ev.len(), 2);
        assert!(ev[0].t_us <= ev[1].t_us);
        assert_eq!(ev[0].kind, TraceKind::FrameSent);
        assert!(t.is_empty(), "take clears");
    }

    #[test]
    fn capacity_caps_recording() {
        let t = Tracer::new(3);
        t.enable();
        for i in 0..10 {
            t.record(0, TraceKind::Forwarded, 0, 1, i);
        }
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn disable_stops_recording() {
        let t = Tracer::new(16);
        t.enable();
        t.record(0, TraceKind::FrameSent, 0, 1, 1);
        t.disable();
        t.record(0, TraceKind::FrameSent, 0, 1, 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn chrome_json_shape() {
        let records = vec![
            TraceRecord {
                t_us: 1.5,
                host: 0,
                kind: TraceKind::FrameSent,
                src: 0,
                dest: 2,
                len: 64,
            },
            TraceRecord {
                t_us: 2.5,
                host: 1,
                kind: TraceKind::Forwarded,
                src: 0,
                dest: 2,
                len: 64,
            },
        ];
        let json = to_chrome_json(&records);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains(r#""name":"frame_sent""#));
        assert!(json.contains(r#""name":"forwarded""#));
        assert!(json.contains(r#""pid":1"#));
        assert_eq!(json.matches("{\"name\"").count(), 2);
        // Balanced braces (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_json_is_valid() {
        assert_eq!(to_chrome_json(&[]), "[]");
    }
}
