//! Emit-before-publish waiver: a synchronous fast path completes the
//! operation on the requester's own thread, so no waiter can see the
//! resolution before it is logged.

impl Requester {
    pub fn aperture_get(&self, id: u32) -> Vec<u8> {
        let buf = self.aperture.read(self.offset);
        // NO-WAITER: the requester completes this get itself, synchronously.
        self.obs.emit(EventKind::GetChunkRx, u64::from(id), [0, 4]);
        buf
    }
}
