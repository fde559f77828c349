//! Seeded counter-via-emit violations: a counter bumped beside its event
//! (the second record of one fact that the event already counts) and a
//! counter reset that the trace cannot account for.

impl Service {
    pub fn handle(&self, ep: &LinkEndpoint, aux: u64) {
        self.metrics.link(ep.link_idx).unwrap().frames_rx.fetch_add(1, Ordering::SeqCst);
        ep.obs.emit(EventKind::FrameRx, aux, [0, 0]);
    }

    pub fn reset(&self, m: &LinkMetrics) {
        m.retransmits.store(0, Ordering::SeqCst);
    }
}
