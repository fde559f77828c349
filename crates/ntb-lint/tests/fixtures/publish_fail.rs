//! Seeded emit-before-publish violations: the requester logs the AMO
//! completion after its wait returned (the shape fixed in the AMO
//! response path), and a service thread logs a get chunk after the fill
//! that woke the requester. A trace taken in between lacks both.

impl Requester {
    pub fn late_amo(&self) -> Result<u64, NtbError> {
        let id = self.pending.register(8, self.target);
        self.obs.emit(EventKind::AmoReqTx, u64::from(id), [0, 0]);
        let buf = self.pending.wait_with_retry_until(id, &self.model, None)?;
        self.obs.emit(EventKind::AmoDone, u64::from(id), [0, 0]);
        Ok(decode(&buf))
    }
}

impl Service {
    pub fn late_chunk(&self, id: u32, data: &[u8]) {
        let _ = self.pending.fill_with(id, 0, data, |_| {});
        self.obs.emit(EventKind::GetChunkRx, u64::from(id), [0, 4]);
    }
}
