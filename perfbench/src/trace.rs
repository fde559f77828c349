//! Spans recorded from the benchmark's own code around calls into each
//! layer's public functions. Each PE thread owns its log (no locking on
//! the hot path); logs are merged after the world ends, summed per span
//! name for the per-layer metrics, and written out as a Chrome/Perfetto
//! trace when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call: `parent` is the id of the enclosing span (a step or a
/// round), and `op` the step/round number that spans of one operation
/// share.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub pe: usize,
    pub id: usize,
    pub parent: Option<usize>,
    pub op: u64,
    pub start: Instant,
    pub end: Instant,
}

/// A PE's span log. Disabled logs still time every call (the end-to-end
/// samples need the durations) but record nothing.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    pe: usize,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool, pe: usize) -> Self {
        SpanLog { enabled, pe, spans: Vec::new() }
    }

    /// Run `f` as span `name`; returns its result and its duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        if self.enabled {
            let id = self.spans.len();
            self.spans.push(Span { name, pe: self.pe, id, parent, op, start, end });
        }
        (r, end - start)
    }

    /// Open an enclosing span (closed by [`close`](Self::close)); `None`
    /// when the log is disabled.
    pub fn open(&mut self, name: &'static str, op: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span { name, pe: self.pe, id, parent: None, op, start: now, end: now });
        Some(id)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = Instant::now();
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Count and total duration of every span name across all PEs.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals(BTreeMap<&'static str, (u64, Duration)>);

impl SpanTotals {
    pub fn add(&mut self, spans: &[Span]) {
        for s in spans {
            self.add_one(s);
        }
    }

    /// Add only the spans whose parent is named `parent` (`spans` is one
    /// PE's log, so span ids index it).
    pub fn add_in(&mut self, spans: &[Span], parent: &str) {
        for s in spans {
            if s.parent.is_some_and(|p| spans.get(p).is_some_and(|p| p.name == parent)) {
                self.add_one(s);
            }
        }
    }

    fn add_one(&mut self, s: &Span) {
        let e = self.0.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end - s.start;
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }

    pub fn count(&self, name: &str) -> u64 {
        self.0.get(name).map_or(0, |e| e.0)
    }

    pub fn total_us(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.1.as_secs_f64() * 1e6)
    }

    /// Mean span duration in microseconds (`NaN` if the span never ran).
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => f64::NAN,
            n => self.total_us(name) / n as f64,
        }
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, `pid` the world, `tid` the PE, with the span id, its
/// parent and op id in `args`.
pub fn chrome_json(worlds: &[(usize, Vec<Span>)], origin: Instant) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (world, spans) in worlds {
        for s in spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let ts = s.start.saturating_duration_since(origin).as_secs_f64() * 1e6;
            let dur = (s.end - s.start).as_secs_f64() * 1e6;
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":{world},\
                 \"tid\":{},\"args\":{{\"id\":{},\"parent\":{parent},\"op\":{}}}}}",
                s.name, s.pe, s.id, s.op
            );
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_times_but_records_nothing() {
        let mut log = SpanLog::new(false, 0);
        let (v, d) = log.time("x", None, 0, || 7);
        assert_eq!(v, 7);
        assert!(d <= Duration::from_secs(1));
        assert_eq!(log.open("step", 0), None);
        assert!(log.into_spans().is_empty());
    }

    #[test]
    fn spans_nest_and_export() {
        let origin = Instant::now();
        let mut log = SpanLog::new(true, 2);
        let step = log.open("step", 5);
        log.time("core.put", step, 5, || ());
        log.close(step);
        let spans = log.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        let mut totals = SpanTotals::default();
        totals.add(&spans);
        assert_eq!(totals.count("core.put"), 1);
        assert!(totals.mean_us("absent").is_nan());
        let json = chrome_json(&[(0, spans)], origin);
        assert!(json.contains("\"name\":\"core.put\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"tid\":2"));
    }
}
