//! Simulated host physical memory.
//!
//! Each simulated host owns a [`HostMemory`] arena from which it allocates
//! [`Region`]s: the symmetric heap chunks, incoming window buffers, bypass
//! buffers and DMA staging areas all live in regions. A region is the
//! model's stand-in for pinned, DMA-able physical memory obtained through
//! the NTB driver (`mmap` of the BAR / `dma_alloc_coherent` in the real
//! stack).
//!
//! # Safety contract
//!
//! Like the real hardware, the model allows two hosts to access the same
//! physical page concurrently: the NTB translates a remote write straight
//! into local RAM with no locks. `Region` therefore uses interior
//! mutability (`UnsafeCell`) with raw-pointer copies, and inherits the SHMEM
//! contract: *concurrent overlapping access to the same bytes without an
//! intervening synchronization (doorbell handshake, barrier, lock) is a
//! program error*. The protocol layers in `ntb-net`/`shmem-core` always
//! bracket region traffic with acquire/release edges (slot headers,
//! scratchpads and doorbells are `SeqCst` atomics), which is what makes the writes
//! visible to the peer thread in practice, exactly as the PCIe ordering
//! rules make posted writes visible before the doorbell TLP.

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{NtbError, Result};

struct RegionInner {
    buf: UnsafeCell<Box<[u8]>>,
}

// SAFETY: access discipline is delegated to the SHMEM-style contract
// documented on the module; all protocol-level accesses are ordered by
// SeqCst operations on scratchpads/doorbells.
unsafe impl Send for RegionInner {}
// SAFETY: same contract as Send above — concurrent shared access goes
// through read/write windows whose cross-host ordering is established by
// SeqCst scratchpad/doorbell operations, mirroring real NTB hardware.
unsafe impl Sync for RegionInner {}

/// A contiguous range of simulated physical memory, cheaply cloneable and
/// shareable across host threads (like a pinned DMA buffer both sides have
/// mapped).
#[derive(Clone)]
pub struct Region {
    inner: Arc<RegionInner>,
    base: u64,
    len: u64,
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Region").field("base", &self.base).field("len", &self.len).finish()
    }
}

impl Region {
    /// Allocate a standalone zeroed region of `len` bytes (not accounted to
    /// any host arena — used by tests and internal scratch space).
    pub fn anonymous(len: u64) -> Region {
        let buf = vec![0u8; len as usize].into_boxed_slice();
        Region { inner: Arc::new(RegionInner { buf: UnsafeCell::new(buf) }), base: 0, len }
    }

    /// Length of the region in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-window of this region sharing the same backing memory.
    /// Used to carve the incoming window into direct / bypass / control
    /// areas.
    pub fn slice(&self, offset: u64, len: u64) -> Result<Region> {
        self.check(offset, len)?;
        Ok(Region { inner: Arc::clone(&self.inner), base: self.base + offset, len })
    }

    fn check(&self, offset: u64, len: u64) -> Result<()> {
        if offset.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(NtbError::RegionOutOfBounds { offset, len, region_size: self.len });
        }
        Ok(())
    }

    fn ptr(&self, offset: u64) -> *mut u8 {
        // SAFETY: bounds were checked by the caller via `check`.
        unsafe { (*self.inner.buf.get()).as_mut_ptr().add((self.base + offset) as usize) }
    }

    /// Copy `data` into the region at `offset`.
    pub fn write(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.check(offset, data.len() as u64)?;
        // Release everything written so far before the bytes land; paired
        // with the Acquire fence in `read`.
        fence(Ordering::Release);
        // SAFETY: bounds checked; concurrent overlap excluded by contract.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.ptr(offset), data.len());
        }
        fence(Ordering::Release);
        Ok(())
    }

    /// Copy `buf.len()` bytes from the region at `offset` into `buf`.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check(offset, buf.len() as u64)?;
        fence(Ordering::Acquire);
        // SAFETY: bounds checked; concurrent overlap excluded by contract.
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr(offset), buf.as_mut_ptr(), buf.len());
        }
        fence(Ordering::Acquire);
        Ok(())
    }

    /// Read `len` bytes at `offset` into a fresh vector.
    pub fn read_vec(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
        let mut v = vec![0u8; len as usize];
        self.read(offset, &mut v)?;
        Ok(v)
    }

    /// Region-to-region copy (the DMA engine's data move).
    pub fn copy_to(&self, src_offset: u64, dst: &Region, dst_offset: u64, len: u64) -> Result<()> {
        self.check(src_offset, len)?;
        dst.check(dst_offset, len)?;
        fence(Ordering::Acquire);
        // SAFETY: both ranges bounds-checked. The two regions may share
        // backing memory (slices of one arena); use `copy` (memmove
        // semantics) to stay defined on overlap.
        unsafe {
            std::ptr::copy(self.ptr(src_offset), dst.ptr(dst_offset), len as usize);
        }
        fence(Ordering::Release);
        Ok(())
    }

    /// Fill `len` bytes at `offset` with `byte`.
    pub fn fill(&self, offset: u64, len: u64, byte: u8) -> Result<()> {
        self.check(offset, len)?;
        fence(Ordering::Release);
        // SAFETY: bounds checked.
        unsafe {
            std::ptr::write_bytes(self.ptr(offset), byte, len as usize);
        }
        fence(Ordering::Release);
        Ok(())
    }

    /// The `u32` at `offset` as an atomic word, for control words two
    /// hosts hand back and forth (a ring slot header). `offset` must be
    /// 4-byte aligned in the backing memory.
    fn word_u32(&self, offset: u64) -> Result<&std::sync::atomic::AtomicU32> {
        self.check(offset, 4)?;
        let ptr = self.ptr(offset);
        if !(ptr as usize).is_multiple_of(4) {
            return Err(NtbError::RegionOutOfBounds { offset, len: 4, region_size: self.len });
        }
        // SAFETY: bounds checked and 4-byte aligned above; the backing
        // allocation outlives `self`. Concurrent plain writes to these
        // bytes follow the module's SHMEM-style contract.
        Ok(unsafe { std::sync::atomic::AtomicU32::from_ptr(ptr.cast::<u32>()) })
    }

    /// Store the little-endian `u32` at `offset` with ONE atomic store.
    /// A plain [`write`](Self::write) of four bytes may land as several
    /// stores (a `memcpy` writes short lengths twice, overlapping), and a
    /// peer that clears the word between them sees it come back.
    pub fn store_u32(&self, offset: u64, value: u32) -> Result<()> {
        let word = self.word_u32(offset)?;
        fence(Ordering::Release);
        word.store(value.to_le(), Ordering::SeqCst);
        Ok(())
    }

    /// Load the little-endian `u32` at `offset` with one atomic load.
    pub fn load_u32(&self, offset: u64) -> Result<u32> {
        let value = u32::from_le(self.word_u32(offset)?.load(Ordering::SeqCst));
        fence(Ordering::Acquire);
        Ok(value)
    }

    /// Atomically replace the little-endian `u32` at `offset` with `new`
    /// if it still holds `current`; `Ok(false)` when it did not (a ring
    /// slot header the receiver clears only if it is still the one it
    /// read).
    pub fn compare_exchange_u32(&self, offset: u64, current: u32, new: u32) -> Result<bool> {
        let word = self.word_u32(offset)?;
        fence(Ordering::Release);
        let swapped = word
            .compare_exchange(current.to_le(), new.to_le(), Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        fence(Ordering::Acquire);
        Ok(swapped)
    }

    /// Write a little-endian `u64` at `offset` (control words in window
    /// headers).
    pub fn write_u64(&self, offset: u64, value: u64) -> Result<()> {
        self.write(offset, &value.to_le_bytes())
    }

    /// Read a little-endian `u64` at `offset`.
    pub fn read_u64(&self, offset: u64) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read(offset, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// True if both handles view the same backing allocation (regardless of
    /// base/len).
    pub fn same_allocation(&self, other: &Region) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// A host's simulated physical memory arena with capacity accounting.
///
/// Regions allocated here are what the NTB windows translate into; the
/// arena exists so tests can assert on memory budgets and so exhaustion is
/// an observable error rather than an OOM.
#[derive(Debug)]
pub struct HostMemory {
    host_id: usize,
    /// Atomic so a resource-fault plan can shrink it mid-run; existing
    /// allocations survive a shrink, new ones see the reduced budget.
    capacity: AtomicU64,
    allocated: AtomicU64,
    regions: AtomicU64,
    activity: Arc<crate::timing::HostActivity>,
}

impl HostMemory {
    /// Create an arena of `capacity` bytes for host `host_id`.
    pub fn new(host_id: usize, capacity: u64) -> Arc<Self> {
        Arc::new(HostMemory {
            host_id,
            capacity: AtomicU64::new(capacity),
            allocated: AtomicU64::new(0),
            regions: AtomicU64::new(0),
            activity: crate::timing::HostActivity::new(),
        })
    }

    /// This host's transmit-activity tracker (shared by both of its NTB
    /// adapters; models root-complex contention).
    pub fn activity(&self) -> &Arc<crate::timing::HostActivity> {
        &self.activity
    }

    /// The owning host's id.
    pub fn host_id(&self) -> usize {
        self.host_id
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        // lint: relaxed-ok(capacity snapshot; admission re-reads under the alloc CAS loop)
        self.capacity.load(Ordering::Relaxed)
    }

    /// Shrink (or grow) the arena to `capacity` bytes mid-run — the
    /// resource-fault hook ("a neighbour stole the pinned pages").
    /// Regions already allocated are untouched even if the arena now
    /// overcommits; only future allocations see the new budget.
    pub fn set_capacity(&self, capacity: u64) {
        // lint: relaxed-ok(capacity knob; alloc_region tolerates a stale read by one fault window)
        self.capacity.store(capacity, Ordering::Relaxed);
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        // lint: relaxed-ok(accounting snapshot for reporting; precision under races not needed)
        self.allocated.load(Ordering::Relaxed)
    }

    /// Number of live region allocations made from this arena.
    /// (Regions are not returned to the arena on drop; the model treats
    /// them as boot-time pinned allocations, as the NTB driver does.)
    pub fn region_count(&self) -> u64 {
        // lint: relaxed-ok(accounting snapshot for reporting; precision under races not needed)
        self.regions.load(Ordering::Relaxed)
    }

    /// Allocate a zeroed region of `len` bytes, charging the arena.
    pub fn alloc_region(&self, len: u64) -> Result<Region> {
        // lint: relaxed-ok(seed value for the CAS loop below; the CAS re-reads on conflict)
        let mut current = self.allocated.load(Ordering::Relaxed);
        loop {
            let capacity = self.capacity();
            let new = current.checked_add(len).ok_or(NtbError::OutOfMemory {
                requested: len,
                available: capacity.saturating_sub(current),
            })?;
            if new > capacity {
                return Err(NtbError::OutOfMemory {
                    requested: len,
                    available: capacity.saturating_sub(current),
                });
            }
            match self.allocated.compare_exchange_weak(
                current,
                new,
                Ordering::Relaxed, // lint: relaxed-ok(pure byte accounting; guards no memory)
                Ordering::Relaxed, // lint: relaxed-ok(failure path only re-reads the counter)
            ) {
                Ok(_) => break,
                Err(observed) => current = observed,
            }
        }
        // lint: relaxed-ok(allocation counting needs atomicity, not ordering)
        self.regions.fetch_add(1, Ordering::Relaxed);
        Ok(Region::anonymous(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let r = Region::anonymous(64);
        r.write(10, &[1, 2, 3, 4]).unwrap();
        assert_eq!(r.read_vec(10, 4).unwrap(), vec![1, 2, 3, 4]);
        // Untouched bytes stay zero.
        assert_eq!(r.read_vec(0, 10).unwrap(), vec![0; 10]);
    }

    #[test]
    fn compare_exchange_u32_swaps_only_the_expected_value() {
        let r = Region::anonymous(64);
        r.write(8, &7u32.to_le_bytes()).unwrap();
        assert!(!r.compare_exchange_u32(8, 9, 0).unwrap(), "a different value stays");
        assert_eq!(r.read_vec(8, 4).unwrap(), 7u32.to_le_bytes());
        assert!(r.compare_exchange_u32(8, 7, 0).unwrap());
        assert_eq!(r.read_vec(8, 4).unwrap(), [0; 4]);
        assert!(r.compare_exchange_u32(62, 0, 1).is_err(), "out of bounds");
    }

    #[test]
    fn u32_store_and_load_roundtrip_little_endian() {
        let r = Region::anonymous(64);
        r.store_u32(12, 0x0102_0304).unwrap();
        assert_eq!(r.read_vec(12, 4).unwrap(), [4, 3, 2, 1]);
        assert_eq!(r.load_u32(12).unwrap(), 0x0102_0304);
        assert!(r.store_u32(62, 1).is_err(), "out of bounds");
    }

    #[test]
    fn out_of_bounds_write_rejected() {
        let r = Region::anonymous(16);
        let err = r.write(10, &[0u8; 10]).unwrap_err();
        assert!(matches!(err, NtbError::RegionOutOfBounds { .. }));
        // Boundary case: exactly to the end is fine.
        r.write(6, &[0u8; 10]).unwrap();
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        let r = Region::anonymous(16);
        let mut buf = [0u8; 8];
        assert!(r.read(12, &mut buf).is_err());
        assert!(r.read(8, &mut buf).is_ok());
    }

    #[test]
    fn offset_overflow_rejected() {
        let r = Region::anonymous(16);
        let err = r.write(u64::MAX - 2, &[0u8; 8]).unwrap_err();
        assert!(matches!(err, NtbError::RegionOutOfBounds { .. }));
    }

    #[test]
    fn slice_views_same_memory() {
        let r = Region::anonymous(64);
        let s = r.slice(16, 16).unwrap();
        assert!(s.same_allocation(&r));
        s.write(0, &[0xAA; 4]).unwrap();
        assert_eq!(r.read_vec(16, 4).unwrap(), vec![0xAA; 4]);
    }

    #[test]
    fn slice_bounds_enforced() {
        let r = Region::anonymous(64);
        assert!(r.slice(60, 8).is_err());
        let s = r.slice(32, 32).unwrap();
        assert_eq!(s.len(), 32);
        assert!(s.write(28, &[0u8; 8]).is_err());
    }

    #[test]
    fn nested_slices() {
        let r = Region::anonymous(100);
        let a = r.slice(10, 80).unwrap();
        let b = a.slice(10, 60).unwrap();
        b.write(0, &[7; 2]).unwrap();
        assert_eq!(r.read_vec(20, 2).unwrap(), vec![7, 7]);
    }

    #[test]
    fn copy_between_regions() {
        let a = Region::anonymous(32);
        let b = Region::anonymous(32);
        a.write(0, b"hello ntb").unwrap();
        a.copy_to(0, &b, 8, 9).unwrap();
        assert_eq!(b.read_vec(8, 9).unwrap(), b"hello ntb");
    }

    #[test]
    fn copy_overlapping_within_same_region() {
        let a = Region::anonymous(32);
        a.write(0, b"abcdefgh").unwrap();
        // Overlapping forward copy must behave like memmove.
        a.copy_to(0, &a, 2, 8).unwrap();
        assert_eq!(a.read_vec(2, 8).unwrap(), b"abcdefgh");
    }

    #[test]
    fn fill_and_u64_helpers() {
        let r = Region::anonymous(32);
        r.fill(0, 32, 0xFF).unwrap();
        assert_eq!(r.read_vec(31, 1).unwrap(), vec![0xFF]);
        r.write_u64(8, 0xDEAD_BEEF_0BAD_F00D).unwrap();
        assert_eq!(r.read_u64(8).unwrap(), 0xDEAD_BEEF_0BAD_F00D);
    }

    #[test]
    fn host_memory_accounting() {
        let hm = HostMemory::new(3, 1024);
        assert_eq!(hm.host_id(), 3);
        let _a = hm.alloc_region(512).unwrap();
        let _b = hm.alloc_region(256).unwrap();
        assert_eq!(hm.allocated(), 768);
        assert_eq!(hm.region_count(), 2);
        let err = hm.alloc_region(512).unwrap_err();
        assert_eq!(err, NtbError::OutOfMemory { requested: 512, available: 256 });
        // Exactly filling the arena works.
        let _c = hm.alloc_region(256).unwrap();
        assert_eq!(hm.allocated(), 1024);
    }

    #[test]
    fn capacity_shrink_starves_future_allocations_only() {
        let hm = HostMemory::new(1, 4096);
        let _held = hm.alloc_region(1024).unwrap();
        hm.set_capacity(512);
        assert_eq!(hm.capacity(), 512);
        // The arena is now overcommitted: the held region survives, but
        // no new allocation fits.
        assert_eq!(hm.allocated(), 1024);
        let err = hm.alloc_region(64).unwrap_err();
        assert!(matches!(err, NtbError::OutOfMemory { .. }));
        // Growing back re-admits allocations.
        hm.set_capacity(4096);
        assert!(hm.alloc_region(64).is_ok());
    }

    #[test]
    fn regions_zero_initialized() {
        let hm = HostMemory::new(0, 4096);
        let r = hm.alloc_region(128).unwrap();
        assert_eq!(r.read_vec(0, 128).unwrap(), vec![0; 128]);
    }

    #[test]
    fn cross_thread_visibility_with_handshake() {
        // Writer thread writes payload then sets a flag (SeqCst atomic);
        // reader sees the payload after observing the flag — the pattern
        // every protocol layer uses.
        use std::sync::atomic::AtomicBool;
        let r = Region::anonymous(1024);
        let flag = Arc::new(AtomicBool::new(false));
        let r2 = r.clone();
        let f2 = Arc::clone(&flag);
        let h = std::thread::spawn(move || {
            r2.write(0, &[42u8; 1024]).unwrap();
            f2.store(true, Ordering::SeqCst);
        });
        while !flag.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        assert_eq!(r.read_vec(0, 1024).unwrap(), vec![42u8; 1024]);
        h.join().unwrap();
    }
}
