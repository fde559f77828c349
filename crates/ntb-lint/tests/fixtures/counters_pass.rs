//! Counter-via-emit fixture (clean): the protocol records an event by
//! emitting it, readers only load the counters, and an atomic that is
//! not an event counter may be written freely.

impl Service {
    pub fn handle(&self, aux: u64) {
        self.ep.obs.emit(EventKind::FrameRx, aux, [0, 0]);
        self.bytes_seen.fetch_add(64, Ordering::SeqCst);
    }

    pub fn report(&self) -> u64 {
        let s = self.node.stats();
        s.frames_rx.load(Ordering::SeqCst) + s.retransmits.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    fn forge(m: &LinkMetrics) {
        m.frames_rx.store(7, Ordering::SeqCst);
    }
}
