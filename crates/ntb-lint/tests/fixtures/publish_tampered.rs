//! Tampered waiver: a `NO-WAITER:` marker without a reason does not
//! waive the site.

impl Requester {
    pub fn unexplained(&self, id: u32) -> Vec<u8> {
        let buf = self.aperture.read(self.offset);
        // NO-WAITER:
        self.obs.emit(EventKind::GetChunkRx, u64::from(id), [0, 4]);
        buf
    }
}
