//! Emit-before-publish fixture (clean): every resolution a waiter can
//! observe is emitted inside the observer closure of the call that
//! publishes it, under the table lock.

impl Service {
    pub fn serve_amo_resp(&self, id: u32, data: &[u8]) {
        let _ = self.pending.fill_with(id, 0, data, |outcome| {
            if matches!(outcome, FillOutcome::Filled) {
                self.obs.emit(EventKind::AmoDone, u64::from(id), [1, 0]);
            }
        });
    }

    pub fn serve_ack(&self, id: u32) {
        self.unacked.ack_with(id, |known| {
            if known {
                self.obs.emit(EventKind::PutAcked, u64::from(id), [1, 0]);
            }
        });
    }

    pub fn sweep(&self, id: u32) {
        self.unacked.fail(id, || {
            self.obs.emit(EventKind::PutAbandon, u64::from(id), [3, 1]);
        });
    }
}
