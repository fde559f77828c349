//! The per-PE OpenSHMEM context: Table I's API surface.
//!
//! | OpenSHMEM routine (Table I)  | `ShmemCtx` equivalent |
//! |------------------------------|------------------------|
//! | `shmem_init()`               | [`ShmemWorld::run`](crate::runtime::ShmemWorld::run) performs the NTB setup, id exchange and service-thread creation before the PE closure runs |
//! | `my_pe()`                    | [`ShmemCtx::my_pe`] |
//! | `num_pes()`                  | [`ShmemCtx::num_pes`] |
//! | `shmem_malloc(size)`         | [`ShmemCtx::malloc`] / [`ShmemCtx::malloc_array`] |
//! | `shmem_TYPE_put(...)`        | [`ShmemCtx::put_slice`] / [`ShmemCtx::put`] (generic over the type) |
//! | `shmem_TYPE_get(...)`        | [`ShmemCtx::get_slice`] / [`ShmemCtx::get`] |
//! | `shmem_barrier_all()`        | [`ShmemCtx::barrier_all`](crate::barrier) |
//! | `shmem_finalize()`           | automatic at the end of `ShmemWorld::run` |
//!
//! Beyond Table I, the essential-features list of §II-B (atomics,
//! broadcast, reductions, distributed locking, synchronization) is covered
//! by the `atomics`, `collectives`, `lock` and `sync` modules, all as
//! methods on this same context.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ntb_net::NtbNode;
use ntb_sim::{EventKind, OpClass, TransferMode};

use crate::collectives::CollScratch;
use crate::config::ShmemConfig;
use crate::error::{Result, ShmemError};
use crate::heap::SymmetricHeap;
use crate::symmetric::{SymAddr, TypedSym};
use crate::types::ShmemScalar;

/// Per-operation options for put/get, replacing the old
/// `put_slice` / `put_slice_with_mode` / `put_slice_nbi` triplet (and its
/// get-side mirror) with one builder:
///
/// ```
/// use shmem_core::prelude::*;
/// ShmemWorld::run(ShmemConfig::fast_sim().with_hosts(2), |ctx| {
///     let sym = ctx.calloc_array::<u32>(4).unwrap();
///     if ctx.my_pe() == 0 {
///         // Batch both puts behind one coalesced doorbell; quiet()
///         // flushes and awaits delivery.
///         let opts = OpOptions::new().coalesce(true);
///         ctx.put_slice_opts(&sym, 0, &[1, 2], 1, opts).unwrap();
///         ctx.put_slice_opts(&sym, 2, &[3, 4], 1, opts).unwrap();
///         ctx.quiet().unwrap();
///     }
///     ctx.barrier_all().unwrap();
/// })
/// .unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOptions {
    /// Data path override; `None` uses the world's
    /// [`default_mode`](crate::config::ShmemConfig::default_mode) (or the
    /// size-based choice when `dma_threshold` is set).
    pub mode: Option<TransferMode>,
    /// `true` (default) rings the doorbell before the call returns;
    /// `false` is the `_nbi` contract — staging only, with
    /// [`quiet`](ShmemCtx::quiet) as the completion point.
    pub blocking: bool,
    /// Defer the doorbell so consecutive puts coalesce into one
    /// interrupt (flushed at the transmit ring's batch cap or the next
    /// `quiet`/`fence`/barrier).
    pub coalesce: bool,
    /// Size-based mode selection: payloads at or below the threshold go
    /// by PIO memcpy, larger ones by DMA (the paper's Fig. 9 crossover).
    /// An explicit `mode` wins over the threshold.
    pub dma_threshold: Option<u64>,
    /// Bound the operation's total time. The deadline travels with every
    /// frame the operation stages: hops drop expired work instead of
    /// forwarding it, admission waits give up once it passes, and the
    /// operation surfaces
    /// [`ShmemError::DeadlineExceeded`](crate::error::ShmemError) instead
    /// of burning retry budget on work nobody wants anymore. `None`
    /// (default) keeps the retry policy's own bounded-time behaviour.
    pub deadline: Option<std::time::Duration>,
    /// Get pipeline depth override: how many get sub-requests this
    /// operation keeps in flight at once (`1` = stop-and-wait). `None`
    /// (default) uses the world's
    /// [`get_window`](crate::config::ShmemConfig::with_get_pipeline).
    pub get_window: Option<usize>,
}

impl Default for OpOptions {
    fn default() -> Self {
        OpOptions {
            mode: None,
            blocking: true,
            coalesce: false,
            dma_threshold: None,
            deadline: None,
            get_window: None,
        }
    }
}

impl OpOptions {
    /// Defaults: world's transfer mode, blocking, doorbell per call.
    pub fn new() -> Self {
        Self::default()
    }

    /// The non-blocking-implicit preset (`shmem_*_nbi`): staging only,
    /// doorbell deferred, completion at `quiet`.
    pub fn nbi() -> Self {
        OpOptions { blocking: false, coalesce: true, ..Self::default() }
    }

    /// Pin the data path (DMA or PIO memcpy) for this operation.
    pub fn mode(mut self, mode: TransferMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Choose blocking (doorbell before return) or nbi semantics.
    pub fn blocking(mut self, on: bool) -> Self {
        self.blocking = on;
        self
    }

    /// Enable doorbell coalescing across consecutive puts.
    pub fn coalesce(mut self, on: bool) -> Self {
        self.coalesce = on;
        self
    }

    /// Pick DMA vs PIO by payload size instead of a fixed mode.
    pub fn dma_threshold(mut self, bytes: u64) -> Self {
        self.dma_threshold = Some(bytes);
        self
    }

    /// Bound the operation's total time (see [`OpOptions::deadline`]):
    ///
    /// ```
    /// use std::time::Duration;
    /// use shmem_core::prelude::*;
    /// ShmemWorld::run(ShmemConfig::fast_sim().with_hosts(2), |ctx| {
    ///     let sym = ctx.calloc_array::<u32>(2).unwrap();
    ///     if ctx.my_pe() == 0 {
    ///         let opts = OpOptions::new().deadline(Duration::from_secs(5));
    ///         ctx.put_slice_opts(&sym, 0, &[1, 2], 1, opts).unwrap();
    ///         ctx.quiet().unwrap();
    ///     }
    ///     ctx.barrier_all().unwrap();
    /// })
    /// .unwrap();
    /// ```
    pub fn deadline(mut self, bound: std::time::Duration) -> Self {
        self.deadline = Some(bound);
        self
    }

    /// Pin the get pipeline depth for this operation: `1` forces
    /// stop-and-wait (each sub-request fully completes before the next
    /// is issued), larger values overlap the responder's service time
    /// with response transfers on large gets.
    pub fn get_window(mut self, window: usize) -> Self {
        self.get_window = Some(window);
        self
    }

    /// The transfer mode this operation actually uses for `len` payload
    /// bytes, given the world default.
    pub(crate) fn effective_mode(&self, len: usize, default: TransferMode) -> TransferMode {
        if let Some(mode) = self.mode {
            return mode;
        }
        match self.dma_threshold {
            Some(t) if (len as u64) <= t => TransferMode::Memcpy,
            Some(_) => TransferMode::Dma,
            None => default,
        }
    }

    /// Whether the transport should withhold the doorbell (coalesced or
    /// nbi operation).
    pub(crate) fn defer_doorbell(&self) -> bool {
        self.coalesce || !self.blocking
    }
}

/// One PE's handle to the OpenSHMEM world. Created by
/// [`ShmemWorld::run`](crate::runtime::ShmemWorld::run); every routine of
/// the model hangs off it.
pub struct ShmemCtx {
    pub(crate) node: Arc<NtbNode>,
    pub(crate) heap: Arc<SymmetricHeap>,
    pub(crate) cfg: ShmemConfig,
    /// Round flags of the dissemination barrier (one epoch word per
    /// round; allocated identically on every PE during init).
    pub(crate) barrier_flags: TypedSym<u64>,
    /// Monotonic epoch of the dissemination barrier.
    pub(crate) barrier_epoch: std::sync::atomic::AtomicU64,
    /// Round flags of the degraded-membership barrier (separate from
    /// `barrier_flags` so full-strength and degraded barriers can never
    /// confuse each other's signals).
    pub(crate) degraded_flags: TypedSym<u64>,
    /// Monotonic epoch of the degraded-membership barrier.
    pub(crate) degraded_epoch: AtomicU64,
    /// Monotonic id generator for API-level trace events (put/get/AMO
    /// issue/complete pairs share one id).
    pub(crate) api_op: AtomicU64,
    /// Monotonic barrier count for trace epochs. Barriers are collective
    /// and every PE calls them in the same order, so the count names the
    /// same barrier on every PE.
    pub(crate) barrier_trace_epoch: AtomicU64,
    /// The world allreduce's collective scratch, one slot per PE.
    pub(crate) coll: CollScratch,
}

/// Rounds reserved for the dissemination barrier (supports up to 2^64
/// PEs; the frame format caps the world at 64 anyway).
const BARRIER_ROUNDS: usize = 8;

impl ShmemCtx {
    pub(crate) fn new(node: Arc<NtbNode>, cfg: ShmemConfig) -> Result<ShmemCtx> {
        let heap = SymmetricHeap::new(Arc::clone(node.memory()), cfg.heap_chunk);
        node.set_delivery(Arc::clone(&heap) as Arc<dyn ntb_net::DeliveryTarget>);
        // Publishing the heap through the link apertures lets direct
        // neighbours serve small gets with one PIO window read instead
        // of the full request/response round trip.
        node.publish_aperture(Arc::clone(&heap) as Arc<dyn ntb_sim::ReadAperture>);
        // Pre-user symmetric allocation: every PE performs it identically
        // during init, so offsets match without a barrier (no peer is
        // running user code yet).
        let flags_addr = heap.malloc((BARRIER_ROUNDS * <u64 as ShmemScalar>::WIDTH) as u64)?;
        heap.fill_flat(flags_addr.offset(), flags_addr.len(), 0)?;
        let barrier_flags = TypedSym::new(flags_addr, BARRIER_ROUNDS)?;
        let degraded_addr = heap.malloc((BARRIER_ROUNDS * <u64 as ShmemScalar>::WIDTH) as u64)?;
        heap.fill_flat(degraded_addr.offset(), degraded_addr.len(), 0)?;
        let degraded_flags = TypedSym::new(degraded_addr, BARRIER_ROUNDS)?;
        let coll = CollScratch::reserve(&heap, node.num_hosts())?;
        Ok(ShmemCtx {
            node,
            heap,
            cfg,
            barrier_flags,
            barrier_epoch: std::sync::atomic::AtomicU64::new(0),
            degraded_flags,
            degraded_epoch: AtomicU64::new(0),
            api_op: AtomicU64::new(0),
            barrier_trace_epoch: AtomicU64::new(0),
            coll,
        })
    }

    /// Fresh id for an API-level trace event pair.
    pub(crate) fn next_api_op(&self) -> u64 {
        // lint: relaxed-ok(unique id allocation; uniqueness needs atomicity, not ordering)
        self.api_op.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub(crate) fn finalize(&self) {
        self.node.clear_aperture();
        self.node.clear_delivery();
    }

    /// This PE's integer identity (`my_pe()`).
    pub fn my_pe(&self) -> usize {
        self.node.host_id()
    }

    /// Number of PEs executing the application (`num_pes()`).
    pub fn num_pes(&self) -> usize {
        self.node.num_hosts()
    }

    /// The runtime configuration.
    pub fn config(&self) -> &ShmemConfig {
        &self.cfg
    }

    /// The default data path for puts/gets.
    pub fn default_mode(&self) -> TransferMode {
        self.cfg.default_mode
    }

    /// The underlying interconnect node (stats, raw transfers — used by
    /// the benchmark harness).
    pub fn node(&self) -> &Arc<NtbNode> {
        &self.node
    }

    /// This PE's symmetric heap (introspection and tests).
    pub fn heap(&self) -> &Arc<SymmetricHeap> {
        &self.heap
    }

    /// PEs this node's heartbeat failure detector currently believes
    /// alive. With the detector disabled this is always every PE.
    pub fn live_pes(&self) -> Vec<usize> {
        self.node.membership().live_pes()
    }

    /// Whether `pe` is currently believed alive.
    pub fn is_pe_live(&self, pe: usize) -> bool {
        self.node.membership().is_live(pe)
    }

    /// The current membership epoch (bumps on every confirmed death and
    /// every rejoin; 0 until the first transition).
    pub fn membership_epoch(&self) -> u64 {
        self.node.membership().epoch()
    }

    pub(crate) fn check_pe(&self, pe: usize) -> Result<()> {
        if pe >= self.num_pes() {
            return Err(ShmemError::BadPe { pe, num_pes: self.num_pes() });
        }
        Ok(())
    }

    /// Resolve an [`OpOptions`] deadline into the wire representation
    /// (absolute microseconds on the network's shared clock; 0 = none).
    pub(crate) fn wire_deadline(&self, opts: &OpOptions) -> u32 {
        opts.deadline.map_or(0, |d| self.node.deadline_us_in(d))
    }

    // ------------------------------------------------------------------
    // Symmetric allocation (shmem_malloc / shmem_free)
    // ------------------------------------------------------------------

    /// Allocate `size` bytes of symmetric memory (`shmem_malloc`).
    ///
    /// Collective: every PE must call it with the same size in the same
    /// order; it barriers on exit as the OpenSHMEM spec requires, which
    /// also guarantees the allocation exists everywhere before any PE
    /// touches it remotely.
    pub fn malloc(&self, size: u64) -> Result<SymAddr> {
        let addr = self.heap.malloc(size)?;
        self.barrier_all()?;
        Ok(addr)
    }

    /// Allocate a symmetric array of `count` elements of `T`
    /// (`shmem_malloc` + typing).
    ///
    /// Like `shmem_malloc`, the memory is **not** zeroed when it recycles
    /// previously freed heap space — use [`calloc_array`](Self::calloc_array)
    /// for guaranteed-zero contents.
    pub fn malloc_array<T: ShmemScalar>(&self, count: usize) -> Result<TypedSym<T>> {
        let addr = self.malloc((count * T::WIDTH) as u64)?;
        TypedSym::new(addr, count)
    }

    /// Allocate symmetric memory whose offset is a multiple of `align`
    /// (`shmem_align`). Collective.
    pub fn malloc_aligned(&self, size: u64, align: u64) -> Result<SymAddr> {
        let addr = self.heap.malloc_aligned(size, align)?;
        self.barrier_all()?;
        Ok(addr)
    }

    /// Allocate zero-initialized symmetric memory (`shmem_calloc`).
    /// Collective; on return every PE's copy is zeroed.
    pub fn calloc(&self, size: u64) -> Result<SymAddr> {
        let addr = self.heap.malloc(size)?;
        self.heap.fill_flat(addr.offset(), addr.len(), 0)?;
        self.barrier_all()?;
        Ok(addr)
    }

    /// Allocate a zero-initialized symmetric array (`shmem_calloc` +
    /// typing). Collective.
    pub fn calloc_array<T: ShmemScalar>(&self, count: usize) -> Result<TypedSym<T>> {
        let addr = self.calloc((count * T::WIDTH) as u64)?;
        TypedSym::new(addr, count)
    }

    /// Release a symmetric allocation (`shmem_free`). Collective: the
    /// entry barrier guarantees no PE is still accessing it.
    pub fn free(&self, addr: SymAddr) -> Result<()> {
        self.barrier_all()?;
        self.heap.free(addr)
    }

    /// Release a typed symmetric array.
    pub fn free_array<T: ShmemScalar>(&self, sym: TypedSym<T>) -> Result<()> {
        self.free(sym.addr())
    }

    // ------------------------------------------------------------------
    // RMA: put / get (shmem_TYPE_put / shmem_TYPE_get and friends)
    // ------------------------------------------------------------------

    /// `shmem_TYPE_put` with explicit [`OpOptions`]: copy `data` into PE
    /// `pe`'s symmetric array at element `index`. Locally blocking:
    /// returns once `data` is reusable; remote delivery is asynchronous
    /// and ordered by [`quiet`](Self::quiet) / barriers. With
    /// [`OpOptions::coalesce`] (or `blocking(false)`) the doorbell is
    /// additionally deferred — frames stage in the transmit ring and one
    /// doorbell covers the whole batch at the ring's cap or the next
    /// `quiet`.
    pub fn put_slice_opts<T: ShmemScalar>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        data: &[T],
        pe: usize,
        opts: OpOptions,
    ) -> Result<()> {
        self.check_pe(pe)?;
        let off = sym.elem_offset(index, data.len())?;
        let bytes = T::slice_to_bytes(data);
        if pe == self.my_pe() {
            self.heap.write_flat(off, &bytes)?;
            self.heap.bump_version();
            return Ok(());
        }
        let mode = opts.effective_mode(bytes.len(), self.cfg.default_mode);
        let defer = opts.defer_doorbell();
        let deadline_us = self.wire_deadline(&opts);
        let obs = self.node.obs();
        if obs.is_enabled() {
            let op = self.next_api_op();
            let t0 = Instant::now();
            obs.emit(EventKind::ApiPutIssue, op, [pe as u64, bytes.len() as u64]);
            self.node.put_bytes_opts(pe, off, &bytes, mode, defer, deadline_us)?;
            self.node.metrics().record_op(OpClass::Put, t0.elapsed().as_micros() as u64);
            obs.emit(EventKind::ApiPutComplete, op, [pe as u64, 0]);
        } else {
            self.node.put_bytes_opts(pe, off, &bytes, mode, defer, deadline_us)?;
        }
        Ok(())
    }

    /// `shmem_TYPE_put` with an explicit transfer mode.
    #[deprecated(since = "0.1.0", note = "use put_slice_opts with OpOptions::new().mode(..)")]
    pub fn put_slice_with_mode<T: ShmemScalar>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        data: &[T],
        pe: usize,
        mode: TransferMode,
    ) -> Result<()> {
        self.put_slice_opts(sym, index, data, pe, OpOptions::new().mode(mode))
    }

    /// `shmem_TYPE_put` with the default transfer mode.
    ///
    /// ```
    /// use shmem_core::{ShmemConfig, ShmemWorld};
    /// ShmemWorld::run(ShmemConfig::fast_sim().with_hosts(2), |ctx| {
    ///     let sym = ctx.calloc_array::<u32>(4).unwrap();
    ///     if ctx.my_pe() == 0 {
    ///         ctx.put_slice(&sym, 0, &[10, 20, 30, 40], 1).unwrap();
    ///     }
    ///     ctx.barrier_all().unwrap();
    ///     if ctx.my_pe() == 1 {
    ///         assert_eq!(ctx.read_local_slice::<u32>(&sym, 0, 4).unwrap(), vec![10, 20, 30, 40]);
    ///     }
    /// })
    /// .unwrap();
    /// ```
    pub fn put_slice<T: ShmemScalar>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        data: &[T],
        pe: usize,
    ) -> Result<()> {
        self.put_slice_opts(sym, index, data, pe, OpOptions::new())
    }

    /// Put a single element (`shmem_TYPE_p`).
    pub fn put<T: ShmemScalar>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        value: T,
        pe: usize,
    ) -> Result<()> {
        self.put_slice(sym, index, &[value], pe)
    }

    /// Non-blocking put (`shmem_TYPE_put_nbi`): equivalent to
    /// `put_slice_opts` with [`OpOptions::nbi`] — the doorbell is
    /// deferred and `quiet` is the completion point.
    #[deprecated(since = "0.1.0", note = "use put_slice_opts with OpOptions::nbi()")]
    pub fn put_slice_nbi<T: ShmemScalar>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        data: &[T],
        pe: usize,
    ) -> Result<()> {
        self.put_slice_opts(sym, index, data, pe, OpOptions::nbi())
    }

    /// `shmem_TYPE_get` with explicit [`OpOptions`]: copy `count`
    /// elements from PE `pe`'s symmetric array at element `index`. Blocks
    /// until the data arrived (gets need their result; `blocking(false)`
    /// is accepted and completes eagerly, matching the model's nbi
    /// semantics).
    pub fn get_slice_opts<T: ShmemScalar>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        count: usize,
        pe: usize,
        opts: OpOptions,
    ) -> Result<Vec<T>> {
        self.check_pe(pe)?;
        let off = sym.elem_offset(index, count)?;
        let len = (count * T::WIDTH) as u64;
        let bytes = if pe == self.my_pe() {
            self.heap.read_flat_vec(off, len)?
        } else {
            let mode = opts.effective_mode(len as usize, self.cfg.default_mode);
            let deadline_us = self.wire_deadline(&opts);
            let fetch = || match opts.get_window {
                Some(w) => self.node.get_bytes_windowed(pe, off, len, mode, deadline_us, w),
                None => self.node.get_bytes_opts(pe, off, len, mode, deadline_us),
            };
            let obs = self.node.obs();
            if obs.is_enabled() {
                let op = self.next_api_op();
                let t0 = Instant::now();
                obs.emit(EventKind::ApiGetIssue, op, [pe as u64, len]);
                let bytes = fetch()?;
                self.node.metrics().record_op(OpClass::Get, t0.elapsed().as_micros() as u64);
                obs.emit(EventKind::ApiGetComplete, op, [pe as u64, 0]);
                bytes
            } else {
                fetch()?
            }
        };
        Ok(T::bytes_to_vec(&bytes))
    }

    /// `shmem_TYPE_get` with an explicit transfer mode.
    #[deprecated(since = "0.1.0", note = "use get_slice_opts with OpOptions::new().mode(..)")]
    pub fn get_slice_with_mode<T: ShmemScalar>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        count: usize,
        pe: usize,
        mode: TransferMode,
    ) -> Result<Vec<T>> {
        self.get_slice_opts(sym, index, count, pe, OpOptions::new().mode(mode))
    }

    /// `shmem_TYPE_get` with the default transfer mode.
    ///
    /// ```
    /// use shmem_core::{ShmemConfig, ShmemWorld};
    /// ShmemWorld::run(ShmemConfig::fast_sim().with_hosts(2), |ctx| {
    ///     let sym = ctx.calloc_array::<f64>(2).unwrap();
    ///     ctx.write_local_slice(&sym, 0, &[ctx.my_pe() as f64, 0.5]).unwrap();
    ///     ctx.barrier_all().unwrap();
    ///     let other = 1 - ctx.my_pe();
    ///     let theirs = ctx.get_slice::<f64>(&sym, 0, 2, other).unwrap();
    ///     assert_eq!(theirs, vec![other as f64, 0.5]);
    ///     ctx.barrier_all().unwrap();
    /// })
    /// .unwrap();
    /// ```
    pub fn get_slice<T: ShmemScalar>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        count: usize,
        pe: usize,
    ) -> Result<Vec<T>> {
        self.get_slice_opts(sym, index, count, pe, OpOptions::new())
    }

    /// Get a single element (`shmem_TYPE_g`).
    pub fn get<T: ShmemScalar>(&self, sym: &TypedSym<T>, index: usize, pe: usize) -> Result<T> {
        Ok(self.get_slice(sym, index, 1, pe)?[0])
    }

    /// Non-blocking get (`shmem_TYPE_get_nbi`); completion at `quiet`.
    /// This model completes it eagerly (see [`OpOptions::nbi`]).
    #[deprecated(since = "0.1.0", note = "use get_slice_opts with OpOptions::nbi()")]
    pub fn get_slice_nbi<T: ShmemScalar>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        count: usize,
        pe: usize,
    ) -> Result<Vec<T>> {
        self.get_slice_opts(sym, index, count, pe, OpOptions::nbi())
    }

    // ------------------------------------------------------------------
    // Local access to symmetric memory
    // ------------------------------------------------------------------

    /// Read this PE's own copy of a symmetric array slice.
    pub fn read_local_slice<T: ShmemScalar>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        count: usize,
    ) -> Result<Vec<T>> {
        let off = sym.elem_offset(index, count)?;
        let bytes = self.heap.read_flat_vec(off, (count * T::WIDTH) as u64)?;
        Ok(T::bytes_to_vec(&bytes))
    }

    /// Read one element of this PE's own copy.
    pub fn read_local<T: ShmemScalar>(&self, sym: &TypedSym<T>, index: usize) -> Result<T> {
        Ok(self.read_local_slice(sym, index, 1)?[0])
    }

    /// Write this PE's own copy of a symmetric array slice.
    pub fn write_local_slice<T: ShmemScalar>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        data: &[T],
    ) -> Result<()> {
        let off = sym.elem_offset(index, data.len())?;
        self.heap.write_flat(off, &T::slice_to_bytes(data))?;
        self.heap.bump_version();
        Ok(())
    }

    /// Write one element of this PE's own copy.
    pub fn write_local<T: ShmemScalar>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        value: T,
    ) -> Result<()> {
        self.write_local_slice(sym, index, &[value])
    }

    // ------------------------------------------------------------------
    // Ordering (shmem_quiet / shmem_fence)
    // ------------------------------------------------------------------

    /// `shmem_quiet`: block until every put this PE issued has been
    /// delivered into its destination's symmetric memory (tracked by the
    /// interconnect's delivery acknowledgements).
    ///
    /// ```
    /// use shmem_core::{CmpOp, ShmemConfig, ShmemWorld};
    /// ShmemWorld::run(ShmemConfig::fast_sim().with_hosts(2), |ctx| {
    ///     let data = ctx.calloc_array::<u64>(1).unwrap();
    ///     let flag = ctx.calloc_array::<u64>(1).unwrap();
    ///     if ctx.my_pe() == 0 {
    ///         ctx.put(&data, 0, 42u64, 1).unwrap();
    ///         ctx.quiet().unwrap(); // 42 is now in PE 1's memory...
    ///         ctx.put(&flag, 0, 1u64, 1).unwrap(); // ...before the flag can arrive
    ///     } else {
    ///         ctx.wait_until(&flag, 0, CmpOp::Eq, 1u64).unwrap();
    ///         assert_eq!(ctx.read_local::<u64>(&data, 0).unwrap(), 42);
    ///     }
    ///     ctx.barrier_all().unwrap();
    /// })
    /// .unwrap();
    /// ```
    ///
    /// On a lossy link the wait is bounded: a put whose retransmission
    /// budget is exhausted surfaces as
    /// [`ShmemError::LinkFailed`](crate::error::ShmemError::LinkFailed)
    /// instead of hanging. A pending put whose
    /// [`OpOptions::deadline`] expired surfaces as
    /// [`ShmemError::DeadlineExceeded`](crate::error::ShmemError::DeadlineExceeded)
    /// (a whole-PE death still outranks it), so `quiet` and `fence`
    /// terminate no later than the shortest pending deadline plus one
    /// sweeper tick.
    pub fn quiet(&self) -> Result<()> {
        let obs = self.node.obs();
        if obs.is_enabled() {
            let op = self.next_api_op();
            let t0 = Instant::now();
            obs.emit(EventKind::QuietStart, op, [0, 0]);
            let result = self.node.quiet();
            self.node.metrics().record_op(OpClass::Quiet, t0.elapsed().as_micros() as u64);
            obs.emit(EventKind::QuietEnd, op, [u64::from(result.is_err()), 0]);
            result?;
        } else {
            self.node.quiet()?;
        }
        Ok(())
    }

    /// `shmem_fence`: order puts to each destination. The ring transport
    /// delivers frames per link in FIFO order, but multi-hop routes can
    /// reorder against single-hop ones, so fence is implemented as quiet
    /// (a conservative, spec-compliant strengthening).
    pub fn fence(&self) -> Result<()> {
        let obs = self.node.obs();
        if obs.is_enabled() {
            obs.emit(EventKind::Fence, self.next_api_op(), [0, 0]);
        }
        self.quiet()
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// This PE's metrics registry (op-latency histograms and per-link
    /// counters), populated while structured tracing is enabled.
    pub fn metrics(&self) -> &Arc<ntb_sim::MetricsRegistry> {
        self.node.metrics()
    }

    /// This PE's counters and metrics as one JSON object:
    /// `{"pe": .., "stats": {..}, "metrics": {"ops": .., "links": ..}}`.
    pub fn metrics_json(&self) -> String {
        format!(
            "{{\"pe\":{},\"stats\":{},\"metrics\":{}}}",
            self.my_pe(),
            self.stats_snapshot().to_json(),
            self.node.metrics().to_json()
        )
    }

    /// Snapshot of this PE's communication counters (protocol activity
    /// plus raw bytes through both NTB adapters).
    pub fn stats_snapshot(&self) -> PeStats {
        // lint: relaxed-ok(monotonic stats counters, snapshot for reporting only)
        let ld = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
        let s = self.node.stats();
        let mut bytes_tx = 0;
        let mut bytes_rx = 0;
        for i in 0..self.node.num_links() {
            let p = self.node.port_stats_at(i);
            bytes_tx += p.bytes_tx;
            bytes_rx += p.bytes_rx;
        }
        let metrics = self.node.metrics();
        let mut router_drops = 0;
        let mut deadline_sheds = 0;
        let mut overload_sheds = 0;
        let mut retry_sheds = 0;
        for i in 0..metrics.link_count() {
            if let Some(l) = metrics.link(i) {
                router_drops += ld(&l.router_drops);
                deadline_sheds += ld(&l.deadline_sheds);
                overload_sheds += ld(&l.overload_sheds);
                retry_sheds += ld(&l.retry_sheds);
            }
        }
        PeStats {
            frames_rx: ld(&s.frames_rx),
            forwards: ld(&s.forwards),
            puts_delivered: ld(&s.puts_delivered),
            gets_served: ld(&s.gets_served),
            acks_received: ld(&s.acks_received),
            amos_served: ld(&s.amos_served),
            retransmits: ld(&s.retransmits),
            checksum_rejects: ld(&s.checksum_rejects),
            reroutes: ld(&s.reroutes),
            duplicates_suppressed: ld(&s.duplicates_suppressed),
            probes_sent: ld(&s.probes_sent),
            link_down_events: ld(&s.link_down_events),
            slot_skips: ld(&s.slot_skips),
            slot_release_misses: ld(&s.slot_release_misses),
            router_drops,
            deadline_sheds,
            overload_sheds,
            retry_sheds,
            bytes_tx,
            bytes_rx,
            heap_capacity: self.heap.capacity(),
            heap_live_bytes: self.heap.live_bytes(),
        }
    }
}

/// A point-in-time view of one PE's communication and memory counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeStats {
    /// Frames handled by this host's service threads.
    pub frames_rx: u64,
    /// Frames forwarded around the ring (this host as intermediate).
    pub forwards: u64,
    /// Put chunks delivered into this PE's symmetric memory.
    pub puts_delivered: u64,
    /// Get requests served from this PE's symmetric memory.
    pub gets_served: u64,
    /// Put acknowledgements returned to this origin.
    pub acks_received: u64,
    /// Atomic operations executed at this PE.
    pub amos_served: u64,
    /// Frames retransmitted after an acknowledgement timeout.
    pub retransmits: u64,
    /// Inbound frames dropped on a payload CRC mismatch.
    pub checksum_rejects: u64,
    /// Sends steered away from a `Down` link (the long way around).
    pub reroutes: u64,
    /// Duplicate deliveries suppressed (retransmission idempotency).
    pub duplicates_suppressed: u64,
    /// Probe writes issued to `Down` links.
    pub probes_sent: u64,
    /// Link-endpoint transitions into the `Down` state.
    pub link_down_events: u64,
    /// Transmit-ring sequence numbers the receiver skipped (a header
    /// that never landed, or a frame that landed after its number was
    /// skipped). Zero on a fault-free link.
    pub slot_skips: u64,
    /// Transmit-ring headers that changed between the receiver's read
    /// and its clear. Zero on a fault-free link.
    pub slot_release_misses: u64,
    /// Frames the router discarded instead of forwarding (out-of-range
    /// header fields, or a destination PE known dead) — previously silent
    /// drops, now counted.
    pub router_drops: u64,
    /// Work dropped because its deadline expired (at admission, at a
    /// forwarding hop, or in the retry sweeper).
    pub deadline_sheds: u64,
    /// Work rejected at admission under overload: a bounded queue was
    /// full or flow-control credits were exhausted.
    pub overload_sheds: u64,
    /// Retransmissions shed because a link's retry budget ran dry.
    pub retry_sheds: u64,
    /// Bytes transmitted through both NTB adapters.
    pub bytes_tx: u64,
    /// Bytes received through both NTB adapters.
    pub bytes_rx: u64,
    /// Symmetric heap capacity (bytes).
    pub heap_capacity: u64,
    /// Bytes inside live symmetric allocations.
    pub heap_live_bytes: u64,
}

impl PeStats {
    /// Render the snapshot as a flat JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"frames_rx\":{},\"forwards\":{},\"puts_delivered\":{},\"gets_served\":{},\
             \"acks_received\":{},\"amos_served\":{},\"retransmits\":{},\
             \"checksum_rejects\":{},\"reroutes\":{},\"duplicates_suppressed\":{},\
             \"probes_sent\":{},\"link_down_events\":{},\"slot_skips\":{},\
             \"slot_release_misses\":{},\"router_drops\":{},\
             \"deadline_sheds\":{},\"overload_sheds\":{},\"retry_sheds\":{},\
             \"bytes_tx\":{},\"bytes_rx\":{},\
             \"heap_capacity\":{},\"heap_live_bytes\":{}}}",
            self.frames_rx,
            self.forwards,
            self.puts_delivered,
            self.gets_served,
            self.acks_received,
            self.amos_served,
            self.retransmits,
            self.checksum_rejects,
            self.reroutes,
            self.duplicates_suppressed,
            self.probes_sent,
            self.link_down_events,
            self.slot_skips,
            self.slot_release_misses,
            self.router_drops,
            self.deadline_sheds,
            self.overload_sheds,
            self.retry_sheds,
            self.bytes_tx,
            self.bytes_rx,
            self.heap_capacity,
            self.heap_live_bytes
        )
    }

    /// Sum of the recovery-path counters — zero on a clean (fault-free)
    /// run, nonzero once the retry machinery had to act.
    pub fn recovery_total(&self) -> u64 {
        self.retransmits
            + self.checksum_rejects
            + self.reroutes
            + self.duplicates_suppressed
            + self.probes_sent
            + self.link_down_events
            + self.slot_skips
            + self.slot_release_misses
            + self.router_drops
    }
}

impl std::fmt::Debug for ShmemCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmemCtx")
            .field("my_pe", &self.my_pe())
            .field("num_pes", &self.num_pes())
            .finish()
    }
}
