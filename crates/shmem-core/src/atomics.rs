//! Remote atomic memory operations (`shmem_TYPE_atomic_*`).
//!
//! §II-B lists remote atomics among the features a SHMEM library must
//! support. Each operation is shipped as an `AmoReq` frame to the target
//! host and executed inside its service thread, serialized with every
//! other atomic at that host by the heap's AMO lock — which is exactly the
//! OpenSHMEM atomicity domain (atomic with respect to other AMOs on the
//! same datum, not to plain puts).

use ntb_net::AmoOp;
use ntb_sim::{EventKind, OpClass};

use crate::ctx::{OpOptions, ShmemCtx};
use crate::error::Result;
use crate::symmetric::TypedSym;
use crate::types::ShmemAtomicInt;

impl ShmemCtx {
    fn amo<T: ShmemAtomicInt>(
        &self,
        op: AmoOp,
        sym: &TypedSym<T>,
        index: usize,
        operand: T,
        compare: T,
        pe: usize,
    ) -> Result<T> {
        self.amo_with(op, sym, index, operand, compare, pe, OpOptions::new())
    }

    #[allow(clippy::too_many_arguments)]
    fn amo_with<T: ShmemAtomicInt>(
        &self,
        op: AmoOp,
        sym: &TypedSym<T>,
        index: usize,
        operand: T,
        compare: T,
        pe: usize,
        opts: OpOptions,
    ) -> Result<T> {
        self.check_pe(pe)?;
        let off = sym.elem_offset(index, 1)?;
        let old = if pe == self.my_pe() {
            self.heap.local_atomic(op, off, T::WIDTH, operand.to_bits64(), compare.to_bits64())?
        } else {
            let deadline_us = self.wire_deadline(&opts);
            let obs = self.node.obs();
            if obs.is_enabled() {
                let api_op = self.next_api_op();
                let t0 = std::time::Instant::now();
                obs.emit(EventKind::ApiAmoIssue, api_op, [pe as u64, op as u64]);
                let old = self.node.amo_opts(
                    pe,
                    op,
                    off,
                    T::WIDTH,
                    operand.to_bits64(),
                    compare.to_bits64(),
                    deadline_us,
                )?;
                self.node.metrics().record_op(OpClass::Amo, t0.elapsed().as_micros() as u64);
                obs.emit(EventKind::ApiAmoComplete, api_op, [pe as u64, op as u64]);
                old
            } else {
                self.node.amo_opts(
                    pe,
                    op,
                    off,
                    T::WIDTH,
                    operand.to_bits64(),
                    compare.to_bits64(),
                    deadline_us,
                )?
            }
        };
        Ok(T::from_bits64(old))
    }

    /// `shmem_TYPE_atomic_fetch_add` with explicit [`OpOptions`] — the
    /// deadline-capable AMO entry point ([`OpOptions::deadline`] is the
    /// only option the AMO path consumes; an AMO request is one small
    /// ring frame whose doorbell rings at once, so mode/coalescing do not
    /// apply).
    pub fn atomic_fetch_add_opts<T: ShmemAtomicInt>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        value: T,
        pe: usize,
        opts: OpOptions,
    ) -> Result<T> {
        self.amo_with(AmoOp::FetchAdd, sym, index, value, T::from_bits64(0), pe, opts)
    }

    /// `shmem_TYPE_atomic_compare_swap` with explicit [`OpOptions`].
    pub fn atomic_compare_swap_opts<T: ShmemAtomicInt>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        compare: T,
        value: T,
        pe: usize,
        opts: OpOptions,
    ) -> Result<T> {
        self.amo_with(AmoOp::CompareSwap, sym, index, value, compare, pe, opts)
    }

    /// `shmem_TYPE_atomic_fetch_add`: add `value` at PE `pe`, return the
    /// old value.
    ///
    /// ```
    /// use shmem_core::{ShmemConfig, ShmemWorld};
    /// ShmemWorld::run(ShmemConfig::fast_sim().with_hosts(3), |ctx| {
    ///     let counter = ctx.calloc_array::<u64>(1).unwrap();
    ///     // Every PE increments the counter hosted at PE 0.
    ///     let old = ctx.atomic_fetch_add(&counter, 0, 1u64, 0).unwrap();
    ///     assert!(old < 3);
    ///     ctx.barrier_all().unwrap();
    ///     if ctx.my_pe() == 0 {
    ///         assert_eq!(ctx.read_local::<u64>(&counter, 0).unwrap(), 3);
    ///     }
    /// })
    /// .unwrap();
    /// ```
    pub fn atomic_fetch_add<T: ShmemAtomicInt>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        value: T,
        pe: usize,
    ) -> Result<T> {
        self.amo(AmoOp::FetchAdd, sym, index, value, T::from_bits64(0), pe)
    }

    /// `shmem_TYPE_atomic_add`: add without fetching.
    pub fn atomic_add<T: ShmemAtomicInt>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        value: T,
        pe: usize,
    ) -> Result<()> {
        self.atomic_fetch_add(sym, index, value, pe).map(|_| ())
    }

    /// `shmem_TYPE_atomic_inc` (+1 without fetching).
    pub fn atomic_inc<T: ShmemAtomicInt>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        pe: usize,
    ) -> Result<()> {
        self.atomic_add(sym, index, T::from_bits64(1), pe)
    }

    /// `shmem_TYPE_atomic_fetch_inc`.
    pub fn atomic_fetch_inc<T: ShmemAtomicInt>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        pe: usize,
    ) -> Result<T> {
        self.atomic_fetch_add(sym, index, T::from_bits64(1), pe)
    }

    /// `shmem_TYPE_atomic_swap`: store `value`, return the old value.
    pub fn atomic_swap<T: ShmemAtomicInt>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        value: T,
        pe: usize,
    ) -> Result<T> {
        self.amo(AmoOp::Swap, sym, index, value, T::from_bits64(0), pe)
    }

    /// `shmem_TYPE_atomic_compare_swap`: store `value` iff the current
    /// value equals `compare`; returns the old value either way.
    pub fn atomic_compare_swap<T: ShmemAtomicInt>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        compare: T,
        value: T,
        pe: usize,
    ) -> Result<T> {
        self.amo(AmoOp::CompareSwap, sym, index, value, compare, pe)
    }

    /// `shmem_TYPE_atomic_fetch`: atomic read.
    pub fn atomic_fetch<T: ShmemAtomicInt>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        pe: usize,
    ) -> Result<T> {
        self.amo(AmoOp::Fetch, sym, index, T::from_bits64(0), T::from_bits64(0), pe)
    }

    /// `shmem_TYPE_atomic_set`: atomic write.
    pub fn atomic_set<T: ShmemAtomicInt>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        value: T,
        pe: usize,
    ) -> Result<()> {
        self.amo(AmoOp::Set, sym, index, value, T::from_bits64(0), pe).map(|_| ())
    }

    /// `shmem_TYPE_atomic_fetch_and`.
    pub fn atomic_fetch_and<T: ShmemAtomicInt>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        value: T,
        pe: usize,
    ) -> Result<T> {
        self.amo(AmoOp::FetchAnd, sym, index, value, T::from_bits64(0), pe)
    }

    /// `shmem_TYPE_atomic_fetch_or`.
    pub fn atomic_fetch_or<T: ShmemAtomicInt>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        value: T,
        pe: usize,
    ) -> Result<T> {
        self.amo(AmoOp::FetchOr, sym, index, value, T::from_bits64(0), pe)
    }

    /// `shmem_TYPE_atomic_fetch_xor`.
    pub fn atomic_fetch_xor<T: ShmemAtomicInt>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        value: T,
        pe: usize,
    ) -> Result<T> {
        self.amo(AmoOp::FetchXor, sym, index, value, T::from_bits64(0), pe)
    }
}
