//! Classic OpenSHMEM names: a porting veneer for C SHMEM code.
//!
//! The specification (and Table I of the paper) names its routines per C
//! type — `shmem_long_put`, `shmem_int_atomic_fetch_add`,
//! `shmem_double_sum_to_all`, ... The Rust API expresses the same surface
//! as generics on [`ShmemCtx`]; this module macro-generates the classic
//! names over it so a C SHMEM kernel can be transliterated line by line:
//!
//! ```
//! use shmem_core::{ShmemConfig, ShmemWorld};
//!
//! ShmemWorld::run(ShmemConfig::fast_sim().with_hosts(2), |ctx| {
//!     let shmem = ctx.c_api();
//!     let x = shmem.shmem_malloc(8 * 4).unwrap();
//!     let x = shmem_core::TypedSym::<i64>::new(x, 4).unwrap();
//!     if shmem.shmem_my_pe() == 0 {
//!         shmem.shmem_long_put(&x, &[1, 2, 3, 4], 1).unwrap();
//!     }
//!     shmem.shmem_barrier_all().unwrap();
//! })
//! .unwrap();
//! ```
//!
//! Differences from C kept deliberately: fallible routines return
//! `Result` instead of aborting, and destinations are typed symmetric
//! handles instead of raw pointers (the safety boundary of the Rust
//! model).

use crate::collectives::{ReduceOp, ShmemReduce};
use crate::ctx::{OpOptions, ShmemCtx};
use crate::error::Result;
use crate::symmetric::{SymAddr, TypedSym};
use crate::sync::CmpOp;
use crate::types::{ShmemAtomicInt, ShmemScalar};

/// The classic-name facade over one PE's context.
#[derive(Clone, Copy)]
pub struct CApi<'a> {
    ctx: &'a ShmemCtx,
}

impl ShmemCtx {
    /// The classic OpenSHMEM naming facade.
    pub fn c_api(&self) -> CApi<'_> {
        CApi { ctx: self }
    }
}

impl<'a> CApi<'a> {
    /// `shmem_my_pe()`.
    pub fn shmem_my_pe(&self) -> i32 {
        self.ctx.my_pe() as i32
    }

    /// `shmem_n_pes()` / `num_pes()`.
    pub fn shmem_n_pes(&self) -> i32 {
        self.ctx.num_pes() as i32
    }

    /// `shmem_malloc(size)`.
    pub fn shmem_malloc(&self, size: usize) -> Result<SymAddr> {
        self.ctx.malloc(size as u64)
    }

    /// `shmem_calloc(count, size)`.
    pub fn shmem_calloc(&self, count: usize, size: usize) -> Result<SymAddr> {
        self.ctx.calloc((count * size) as u64)
    }

    /// `shmem_align(alignment, size)`.
    pub fn shmem_align(&self, alignment: usize, size: usize) -> Result<SymAddr> {
        self.ctx.malloc_aligned(size as u64, alignment as u64)
    }

    /// `shmem_free(ptr)`.
    pub fn shmem_free(&self, addr: SymAddr) -> Result<()> {
        self.ctx.free(addr)
    }

    /// `shmem_barrier_all()`.
    pub fn shmem_barrier_all(&self) -> Result<()> {
        self.ctx.barrier_all()
    }

    /// `shmem_quiet()`.
    pub fn shmem_quiet(&self) -> Result<()> {
        self.ctx.quiet()
    }

    /// `shmem_fence()`.
    pub fn shmem_fence(&self) -> Result<()> {
        self.ctx.fence()
    }

    /// `shmem_ctx_quiet(ctx)` (OpenSHMEM 1.4): this model has one
    /// communication context per PE, so it is `shmem_quiet` on it.
    pub fn shmem_ctx_quiet(&self) -> Result<()> {
        self.ctx.quiet()
    }

    /// `shmem_ctx_fence(ctx)` (OpenSHMEM 1.4).
    pub fn shmem_ctx_fence(&self) -> Result<()> {
        self.ctx.fence()
    }

    /// `shmem_sync_all()` (OpenSHMEM 1.4): barrier without the implicit
    /// quiet — this transport's barrier already subsumes it.
    pub fn shmem_sync_all(&self) -> Result<()> {
        self.ctx.barrier_all()
    }

    /// `shmem_set_lock(lock)`.
    pub fn shmem_set_lock(&self, lock: &TypedSym<u64>) -> Result<()> {
        self.ctx.set_lock(lock)
    }

    /// `shmem_clear_lock(lock)`.
    pub fn shmem_clear_lock(&self, lock: &TypedSym<u64>) -> Result<()> {
        self.ctx.clear_lock(lock)
    }

    /// `shmem_test_lock(lock)` — `true` means acquired.
    pub fn shmem_test_lock(&self, lock: &TypedSym<u64>) -> Result<bool> {
        self.ctx.test_lock(lock)
    }

    /// Generic `shmem_putmem`: raw bytes.
    pub fn shmem_putmem(&self, dest: &TypedSym<u8>, src: &[u8], pe: i32) -> Result<()> {
        self.ctx.put_slice(dest, 0, src, pe as usize)
    }

    /// Generic `shmem_getmem`: raw bytes.
    pub fn shmem_getmem(&self, src: &TypedSym<u8>, nelems: usize, pe: i32) -> Result<Vec<u8>> {
        self.ctx.get_slice(src, 0, nelems, pe as usize)
    }

    /// `shmem_putmem_nbi(dest, source, nelems, pe)` (OpenSHMEM 1.4):
    /// staging only, doorbell coalesced; `shmem_quiet` completes it.
    pub fn shmem_putmem_nbi(&self, dest: &TypedSym<u8>, src: &[u8], pe: i32) -> Result<()> {
        self.ctx.put_slice_opts(dest, 0, src, pe as usize, OpOptions::nbi())
    }

    /// `shmem_getmem_nbi(dest, source, nelems, pe)` (OpenSHMEM 1.4);
    /// this model completes gets eagerly.
    pub fn shmem_getmem_nbi(&self, src: &TypedSym<u8>, nelems: usize, pe: i32) -> Result<Vec<u8>> {
        self.ctx.get_slice_opts(src, 0, nelems, pe as usize, OpOptions::nbi())
    }

    /// Generic `shmem_getmem` with explicit [`OpOptions`] — the escape
    /// hatch for deadline-bounded or window-tuned bulk gets from
    /// transliterated C code.
    pub fn shmem_getmem_opts(
        &self,
        src: &TypedSym<u8>,
        nelems: usize,
        pe: i32,
        opts: OpOptions,
    ) -> Result<Vec<u8>> {
        self.ctx.get_slice_opts(src, 0, nelems, pe as usize, opts)
    }
}

/// RMA routines for one C type name.
macro_rules! c_rma {
    ($t:ty, $put:ident, $get:ident, $p:ident, $g:ident, $iput:ident, $iget:ident,
     $put_nbi:ident, $get_nbi:ident) => {
        impl<'a> CApi<'a> {
            /// `shmem_TYPE_put(dest, source, nelems, pe)`.
            pub fn $put(&self, dest: &TypedSym<$t>, src: &[$t], pe: i32) -> Result<()> {
                self.ctx.put_slice(dest, 0, src, pe as usize)
            }

            /// `shmem_TYPE_get(dest, source, nelems, pe)`.
            pub fn $get(&self, src: &TypedSym<$t>, nelems: usize, pe: i32) -> Result<Vec<$t>> {
                self.ctx.get_slice(src, 0, nelems, pe as usize)
            }

            /// `shmem_TYPE_put_nbi(dest, source, nelems, pe)` (OpenSHMEM
            /// 1.4): doorbell coalesced, completion at `shmem_quiet`.
            pub fn $put_nbi(&self, dest: &TypedSym<$t>, src: &[$t], pe: i32) -> Result<()> {
                self.ctx.put_slice_opts(dest, 0, src, pe as usize, OpOptions::nbi())
            }

            /// `shmem_TYPE_get_nbi(dest, source, nelems, pe)` (OpenSHMEM
            /// 1.4); completes eagerly in this model.
            pub fn $get_nbi(&self, src: &TypedSym<$t>, nelems: usize, pe: i32) -> Result<Vec<$t>> {
                self.ctx.get_slice_opts(src, 0, nelems, pe as usize, OpOptions::nbi())
            }

            /// `shmem_TYPE_p(addr, value, pe)`.
            pub fn $p(&self, dest: &TypedSym<$t>, value: $t, pe: i32) -> Result<()> {
                self.ctx.put(dest, 0, value, pe as usize)
            }

            /// `shmem_TYPE_g(addr, pe)`.
            pub fn $g(&self, src: &TypedSym<$t>, pe: i32) -> Result<$t> {
                self.ctx.get(src, 0, pe as usize)
            }

            /// `shmem_TYPE_iput(dest, source, tst, sst, nelems, pe)`.
            #[allow(clippy::too_many_arguments)]
            pub fn $iput(
                &self,
                dest: &TypedSym<$t>,
                src: &[$t],
                tst: usize,
                sst: usize,
                nelems: usize,
                pe: i32,
            ) -> Result<()> {
                self.ctx.iput(dest, 0, tst, src, sst, nelems, pe as usize)
            }

            /// `shmem_TYPE_iget(dest, source, sst, nelems, pe)`.
            pub fn $iget(
                &self,
                src: &TypedSym<$t>,
                sst: usize,
                nelems: usize,
                pe: i32,
            ) -> Result<Vec<$t>> {
                self.ctx.iget(src, 0, sst, nelems, pe as usize)
            }
        }
    };
}

c_rma!(
    i32,
    shmem_int_put,
    shmem_int_get,
    shmem_int_p,
    shmem_int_g,
    shmem_int_iput,
    shmem_int_iget,
    shmem_int_put_nbi,
    shmem_int_get_nbi
);
c_rma!(
    i64,
    shmem_long_put,
    shmem_long_get,
    shmem_long_p,
    shmem_long_g,
    shmem_long_iput,
    shmem_long_iget,
    shmem_long_put_nbi,
    shmem_long_get_nbi
);
c_rma!(
    i16,
    shmem_short_put,
    shmem_short_get,
    shmem_short_p,
    shmem_short_g,
    shmem_short_iput,
    shmem_short_iget,
    shmem_short_put_nbi,
    shmem_short_get_nbi
);
c_rma!(
    f32,
    shmem_float_put,
    shmem_float_get,
    shmem_float_p,
    shmem_float_g,
    shmem_float_iput,
    shmem_float_iget,
    shmem_float_put_nbi,
    shmem_float_get_nbi
);
c_rma!(
    f64,
    shmem_double_put,
    shmem_double_get,
    shmem_double_p,
    shmem_double_g,
    shmem_double_iput,
    shmem_double_iget,
    shmem_double_put_nbi,
    shmem_double_get_nbi
);
c_rma!(
    u32,
    shmem_uint_put,
    shmem_uint_get,
    shmem_uint_p,
    shmem_uint_g,
    shmem_uint_iput,
    shmem_uint_iget,
    shmem_uint_put_nbi,
    shmem_uint_get_nbi
);
c_rma!(
    u64,
    shmem_ulong_put,
    shmem_ulong_get,
    shmem_ulong_p,
    shmem_ulong_g,
    shmem_ulong_iput,
    shmem_ulong_iget,
    shmem_ulong_put_nbi,
    shmem_ulong_get_nbi
);

/// Atomic routines for one C integer type name.
macro_rules! c_atomic {
    ($t:ty, $fadd:ident, $add:ident, $inc:ident, $finc:ident, $swap:ident, $cswap:ident, $fetch:ident, $set:ident) => {
        impl<'a> CApi<'a> {
            /// `shmem_TYPE_atomic_fetch_add(target, value, pe)`.
            pub fn $fadd(&self, target: &TypedSym<$t>, value: $t, pe: i32) -> Result<$t> {
                self.ctx.atomic_fetch_add(target, 0, value, pe as usize)
            }

            /// `shmem_TYPE_atomic_add(target, value, pe)`.
            pub fn $add(&self, target: &TypedSym<$t>, value: $t, pe: i32) -> Result<()> {
                self.ctx.atomic_add(target, 0, value, pe as usize)
            }

            /// `shmem_TYPE_atomic_inc(target, pe)`.
            pub fn $inc(&self, target: &TypedSym<$t>, pe: i32) -> Result<()> {
                self.ctx.atomic_inc(target, 0, pe as usize)
            }

            /// `shmem_TYPE_atomic_fetch_inc(target, pe)`.
            pub fn $finc(&self, target: &TypedSym<$t>, pe: i32) -> Result<$t> {
                self.ctx.atomic_fetch_inc(target, 0, pe as usize)
            }

            /// `shmem_TYPE_atomic_swap(target, value, pe)`.
            pub fn $swap(&self, target: &TypedSym<$t>, value: $t, pe: i32) -> Result<$t> {
                self.ctx.atomic_swap(target, 0, value, pe as usize)
            }

            /// `shmem_TYPE_atomic_compare_swap(target, cond, value, pe)`.
            pub fn $cswap(
                &self,
                target: &TypedSym<$t>,
                cond: $t,
                value: $t,
                pe: i32,
            ) -> Result<$t> {
                self.ctx.atomic_compare_swap(target, 0, cond, value, pe as usize)
            }

            /// `shmem_TYPE_atomic_fetch(target, pe)`.
            pub fn $fetch(&self, target: &TypedSym<$t>, pe: i32) -> Result<$t> {
                self.ctx.atomic_fetch(target, 0, pe as usize)
            }

            /// `shmem_TYPE_atomic_set(target, value, pe)`.
            pub fn $set(&self, target: &TypedSym<$t>, value: $t, pe: i32) -> Result<()> {
                self.ctx.atomic_set(target, 0, value, pe as usize)
            }
        }
    };
}

c_atomic!(
    i32,
    shmem_int_atomic_fetch_add,
    shmem_int_atomic_add,
    shmem_int_atomic_inc,
    shmem_int_atomic_fetch_inc,
    shmem_int_atomic_swap,
    shmem_int_atomic_compare_swap,
    shmem_int_atomic_fetch,
    shmem_int_atomic_set
);
c_atomic!(
    i64,
    shmem_long_atomic_fetch_add,
    shmem_long_atomic_add,
    shmem_long_atomic_inc,
    shmem_long_atomic_fetch_inc,
    shmem_long_atomic_swap,
    shmem_long_atomic_compare_swap,
    shmem_long_atomic_fetch,
    shmem_long_atomic_set
);
c_atomic!(
    u64,
    shmem_ulong_atomic_fetch_add,
    shmem_ulong_atomic_add,
    shmem_ulong_atomic_inc,
    shmem_ulong_atomic_fetch_inc,
    shmem_ulong_atomic_swap,
    shmem_ulong_atomic_compare_swap,
    shmem_ulong_atomic_fetch,
    shmem_ulong_atomic_set
);

/// Reduction routines for one C type name: all PEs receive the result
/// of [`ShmemCtx::allreduce`]. Generates the
/// classic `shmem_TYPE_OP_to_all` names and the OpenSHMEM 1.5
/// `shmem_TYPE_OP_reduce` names alike.
macro_rules! c_reduce {
    ($t:ty, $sum:ident, $prod:ident, $min:ident, $max:ident) => {
        impl<'a> CApi<'a> {
            #[doc = concat!("`", stringify!($sum), "`: all PEs receive the sum.")]
            pub fn $sum(&self, src: &[$t]) -> Result<Vec<$t>> {
                self.ctx.allreduce(ReduceOp::Sum, src)
            }

            #[doc = concat!("`", stringify!($prod), "`: all PEs receive the product.")]
            pub fn $prod(&self, src: &[$t]) -> Result<Vec<$t>> {
                self.ctx.allreduce(ReduceOp::Prod, src)
            }

            #[doc = concat!("`", stringify!($min), "`: all PEs receive the minimum.")]
            pub fn $min(&self, src: &[$t]) -> Result<Vec<$t>> {
                self.ctx.allreduce(ReduceOp::Min, src)
            }

            #[doc = concat!("`", stringify!($max), "`: all PEs receive the maximum.")]
            pub fn $max(&self, src: &[$t]) -> Result<Vec<$t>> {
                self.ctx.allreduce(ReduceOp::Max, src)
            }
        }
    };
}

c_reduce!(
    i32,
    shmem_int_sum_to_all,
    shmem_int_prod_to_all,
    shmem_int_min_to_all,
    shmem_int_max_to_all
);
c_reduce!(
    i64,
    shmem_long_sum_to_all,
    shmem_long_prod_to_all,
    shmem_long_min_to_all,
    shmem_long_max_to_all
);
c_reduce!(
    f32,
    shmem_float_sum_to_all,
    shmem_float_prod_to_all,
    shmem_float_min_to_all,
    shmem_float_max_to_all
);
c_reduce!(
    f64,
    shmem_double_sum_to_all,
    shmem_double_prod_to_all,
    shmem_double_min_to_all,
    shmem_double_max_to_all
);
c_reduce!(
    i32,
    shmem_int_sum_reduce,
    shmem_int_prod_reduce,
    shmem_int_min_reduce,
    shmem_int_max_reduce
);
c_reduce!(
    i64,
    shmem_long_sum_reduce,
    shmem_long_prod_reduce,
    shmem_long_min_reduce,
    shmem_long_max_reduce
);
c_reduce!(
    u64,
    shmem_uint64_sum_reduce,
    shmem_uint64_prod_reduce,
    shmem_uint64_min_reduce,
    shmem_uint64_max_reduce
);
c_reduce!(
    f64,
    shmem_double_sum_reduce,
    shmem_double_prod_reduce,
    shmem_double_min_reduce,
    shmem_double_max_reduce
);

impl<'a> CApi<'a> {
    /// `shmem_TYPE_wait_until(ivar, cmp, value)` (generic over the type).
    pub fn shmem_wait_until<T: ShmemScalar + PartialOrd>(
        &self,
        ivar: &TypedSym<T>,
        cmp: CmpOp,
        value: T,
    ) -> Result<T> {
        // DEADLINE-CLIPPED: delegate — `ctx.wait_until` derives its own
        // deadline from `cfg.wait_timeout` and clips every poll tick to it.
        self.ctx.wait_until(ivar, 0, cmp, value)
    }

    /// `shmem_broadcast(dest == source here, nelems, root)` (generic).
    pub fn shmem_broadcast<T: ShmemScalar>(
        &self,
        sym: &TypedSym<T>,
        nelems: usize,
        root: i32,
    ) -> Result<()> {
        self.ctx.broadcast(sym, 0, nelems, root as usize)
    }

    /// `shmem_fcollect` (generic).
    pub fn shmem_fcollect<T: ShmemScalar>(&self, dest: &TypedSym<T>, src: &[T]) -> Result<()> {
        self.ctx.fcollect(dest, src)
    }

    /// `shmem_collect` (generic, variable contributions).
    pub fn shmem_collect<T: ShmemScalar>(&self, dest: &TypedSym<T>, src: &[T]) -> Result<usize> {
        self.ctx.collect(dest, src)
    }

    /// `shmem_alltoall` (generic).
    pub fn shmem_alltoall<T: ShmemScalar>(
        &self,
        dest: &TypedSym<T>,
        src: &[T],
        block: usize,
    ) -> Result<()> {
        self.ctx.alltoall(dest, src, block)
    }

    /// Generic reduction escape hatch (any `ShmemReduce` type and op).
    pub fn shmem_reduce<T: ShmemReduce>(&self, op: ReduceOp, src: &[T]) -> Result<Vec<T>> {
        self.ctx.allreduce(op, src)
    }

    /// `shmem_broadcastmem(dest == source here, nelems, root)`: the
    /// OpenSHMEM 1.5 byte-granular broadcast.
    pub fn shmem_broadcastmem(&self, sym: &TypedSym<u8>, nelems: usize, root: i32) -> Result<()> {
        self.ctx.broadcast(sym, 0, nelems, root as usize)
    }

    /// `shmem_team_sync(team)`: OpenSHMEM 1.5 team synchronization.
    pub fn shmem_team_sync(&self, team: &crate::teams::Team) -> Result<()> {
        self.ctx.team_sync(team)
    }

    /// Generic atomic escape hatch.
    pub fn shmem_atomic_fetch_add<T: ShmemAtomicInt>(
        &self,
        target: &TypedSym<T>,
        value: T,
        pe: i32,
    ) -> Result<T> {
        self.ctx.atomic_fetch_add(target, 0, value, pe as usize)
    }
}
