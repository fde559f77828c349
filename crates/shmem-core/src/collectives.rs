//! Collective operations: broadcast, reductions, collect, all-to-all.
//!
//! §II-B lists broadcasts and reductions among the essential SHMEM
//! features. On the switchless ring they are built from the primitives
//! the paper implements — put, get and the barrier.
//!
//! [`allreduce`](ShmemCtx::allreduce) (and
//! [`team_allreduce`](ShmemCtx::team_allreduce)) runs without any barrier
//! or allocation: each PE `put_with_signal`s its block into collective
//! scratch reserved before user code runs (or at team creation) and waits
//! on monotone epoch signals — the reserved work arrays and flag signals
//! of the OpenSHMEM `pSync`/`pWrk` model.
//!
//! Each collective has one implementation, and none allocates per call.
//! [`broadcast_value`](ShmemCtx::broadcast_value) and
//! [`reduce_to_root`](ShmemCtx::reduce_to_root) are allreduces, and
//! [`collect`](ShmemCtx::collect) exchanges its sizes with one allreduce
//! and closes with one exit barrier. [`broadcast`](ShmemCtx::broadcast),
//! [`fcollect`](ShmemCtx::fcollect) and [`alltoall`](ShmemCtx::alltoall)
//! still take the simplest correct shape: data moves with puts, and
//! entry/exit barriers provide the synchronization the OpenSHMEM
//! collectives specify over their active set (here always the full
//! world, as in the paper).
//!
//! Under a degraded membership (a PE confirmed dead by the heartbeat
//! detector) the data-movement loops address the **live** PEs only, or
//! the collective fails fast with `PeFailed`, per
//! [`DegradedPolicy`](crate::config::DegradedPolicy). Dead PEs' slots in
//! gathered results keep whatever the local copy last held (zero for
//! `calloc`-ed scratch), and reductions combine live contributions only.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::config::DegradedPolicy;
use crate::ctx::ShmemCtx;
use crate::error::{Result, ShmemError};
use crate::heap::SymmetricHeap;
use crate::signal::SignalOp;
use crate::symmetric::{SymAddr, TypedSym};
use crate::types::ShmemScalar;

/// Bytes of one contribution block: the part of the input one allreduce
/// round moves per PE. Larger inputs loop through the same slots, one
/// round per block.
const BLOCK_BYTES: usize = 1024;

/// Bytes of the proof trailing a block in its slot: the round's epoch and
/// a checksum over epoch and block (see [`block_proof`]).
const PROOF_BYTES: usize = 16;

/// Bytes of one contribution slot of the collective scratch: a block and
/// its proof. It fits the transmit ring's payload lane, so a block and
/// its signal travel as one doorbell batch.
const SLOT_BYTES: usize = BLOCK_BYTES + PROOF_BYTES;

/// How often an allreduce blocked on a contribution re-polls the
/// failure detector (as the barriers do), so a member dying mid-call
/// surfaces as [`ShmemError::PeFailed`] well before the timeout.
const MEMBERSHIP_POLL: Duration = Duration::from_millis(20);

/// Collective scratch of the epoch-signalled allreduce: two banks of one
/// [`SLOT_BYTES`] slot per participant, plus one `u64` signal word per
/// (bank, participant). Round `e` uses bank `e % 2`, and participant `r`
/// writes only slot `r` of a bank, so no two writers share a slot.
///
/// The world's scratch is reserved in `ShmemCtx::new`, before any PE runs
/// user code (like the barrier flags), and a team's in
/// [`team_split`](ShmemCtx::team_split): an allreduce call allocates
/// nothing and so needs no allocation barrier.
#[derive(Debug)]
pub(crate) struct CollScratch {
    /// `2 * slots` contribution slots; bank `b`'s slot `r` starts at byte
    /// `(b * slots + r) * SLOT_BYTES`.
    data: SymAddr,
    /// `2 * slots` signal words, indexed like the slots.
    sig: TypedSym<u64>,
    /// Participants (slots per bank).
    slots: usize,
    /// Rounds started so far; round `e` signals with the value `e`.
    epoch: AtomicU64,
}

impl CollScratch {
    /// Reserve zeroed scratch for `slots` participants straight from
    /// `heap`. Only valid before user code runs: every PE must make the
    /// same reservations in the same order, so offsets match without
    /// communication.
    pub(crate) fn reserve(heap: &SymmetricHeap, slots: usize) -> Result<CollScratch> {
        let data = heap.malloc((2 * slots * SLOT_BYTES) as u64)?;
        heap.fill_flat(data.offset(), data.len(), 0)?;
        let sig_addr = heap.malloc((2 * slots * <u64 as ShmemScalar>::WIDTH) as u64)?;
        heap.fill_flat(sig_addr.offset(), sig_addr.len(), 0)?;
        let sig = TypedSym::new(sig_addr, 2 * slots)?;
        Ok(CollScratch { data, sig, slots, epoch: AtomicU64::new(0) })
    }

    /// Allocate zeroed scratch for `slots` participants with the
    /// collective `calloc` (team creation, collective over the world).
    pub(crate) fn alloc(ctx: &ShmemCtx, slots: usize) -> Result<CollScratch> {
        let data = ctx.calloc((2 * slots * SLOT_BYTES) as u64)?;
        let sig = ctx.calloc_array::<u64>(2 * slots)?;
        Ok(CollScratch { data, sig, slots, epoch: AtomicU64::new(0) })
    }

    /// Release scratch from [`Self::alloc`]. Collective over the world.
    pub(crate) fn free(self, ctx: &ShmemCtx) -> Result<()> {
        ctx.free_array(self.sig)?;
        ctx.free(self.data)
    }

    /// Slot `slot` of `bank`, as bytes.
    fn slot(&self, bank: usize, slot: usize) -> Result<TypedSym<u8>> {
        let start = ((bank * self.slots + slot) * SLOT_BYTES) as u64;
        let addr = SymAddr {
            offset: self.data.byte_offset(start, SLOT_BYTES as u64)?,
            len: SLOT_BYTES as u64,
        };
        TypedSym::new(addr, SLOT_BYTES)
    }
}

/// The proof a slot carries after its block's bytes: `epoch`, then an
/// FNV-1a checksum over `epoch` and `block`. A slot proves round `epoch`
/// only when both words match what its block bytes give, so neither a
/// block left over from an earlier round nor one read while a put was
/// still landing in it passes.
fn block_proof(epoch: u64, block: &[u8]) -> [u8; PROOF_BYTES] {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in epoch.to_le_bytes().iter().chain(block) {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut proof = [0u8; PROOF_BYTES];
    proof[..8].copy_from_slice(&epoch.to_le_bytes());
    proof[8..].copy_from_slice(&hash.to_le_bytes());
    proof
}

/// Reduction operators (`shmem_TYPE_{sum,prod,min,max}_reduce`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum.
    Sum,
    /// Product.
    Prod,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// Scalars that support the arithmetic reductions.
pub trait ShmemReduce: ShmemScalar {
    /// Combine two values under `op`.
    fn combine(op: ReduceOp, a: Self, b: Self) -> Self;

    /// The identity element of `op`.
    fn identity(op: ReduceOp) -> Self;
}

macro_rules! impl_reduce_int {
    ($($t:ty),*) => {$(
        impl ShmemReduce for $t {
            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a.wrapping_add(b),
                    ReduceOp::Prod => a.wrapping_mul(b),
                    ReduceOp::Min => a.min(b),
                    ReduceOp::Max => a.max(b),
                }
            }

            fn identity(op: ReduceOp) -> Self {
                match op {
                    ReduceOp::Sum => 0,
                    ReduceOp::Prod => 1,
                    ReduceOp::Min => <$t>::MAX,
                    ReduceOp::Max => <$t>::MIN,
                }
            }
        }
    )*};
}

macro_rules! impl_reduce_float {
    ($($t:ty),*) => {$(
        impl ShmemReduce for $t {
            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a + b,
                    ReduceOp::Prod => a * b,
                    ReduceOp::Min => a.min(b),
                    ReduceOp::Max => a.max(b),
                }
            }

            fn identity(op: ReduceOp) -> Self {
                match op {
                    ReduceOp::Sum => 0.0,
                    ReduceOp::Prod => 1.0,
                    ReduceOp::Min => <$t>::INFINITY,
                    ReduceOp::Max => <$t>::NEG_INFINITY,
                }
            }
        }
    )*};
}

impl_reduce_int!(u8, u16, u32, u64, i8, i16, i32, i64);
impl_reduce_float!(f32, f64);

impl ShmemCtx {
    /// The PE set a world collective addresses: every PE on a
    /// full-strength ring; under a degraded membership, the live PEs
    /// (policy [`DegradedPolicy::Degrade`]) or
    /// [`ShmemError::PeFailed`] (policy [`DegradedPolicy::Fail`]).
    pub(crate) fn collective_peers(&self) -> Result<Vec<usize>> {
        let n = self.num_pes();
        let view = self.node.membership().view();
        let live = view.live_pes(n);
        if live.len() == n || self.cfg.degraded_policy == DegradedPolicy::Degrade {
            return Ok(live);
        }
        let pe = (0..n).find(|&p| !view.is_live(p)).unwrap_or(0);
        // RESOLVES(none): membership policy gate before the collective
        // communicates — nothing is in flight for this op yet.
        Err(ShmemError::PeFailed { pe, epoch: view.epoch })
    }

    /// `shmem_broadcast`: replicate `count` elements starting at `index`
    /// of `root`'s copy of `sym` into every other PE's copy. Collective.
    pub fn broadcast<T: ShmemScalar>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        count: usize,
        root: usize,
    ) -> Result<()> {
        self.check_live_root(root)?;
        let peers = self.collective_peers()?;
        // Entry barrier: everyone's buffers are ready to be overwritten.
        self.barrier_all()?;
        if self.my_pe() == root {
            let data = self.read_local_slice(sym, index, count)?;
            for pe in peers {
                if pe != root {
                    self.put_slice(sym, index, &data, pe)?;
                }
            }
        }
        // Exit barrier: broadcast data visible everywhere.
        self.barrier_all()
    }

    /// `shmem_fcollect`: concatenate each PE's `src` block into every
    /// PE's copy of `dest` at slot `my_pe`. `dest.count()` must equal
    /// `num_pes * src.len()`. Collective.
    pub fn fcollect<T: ShmemScalar>(&self, dest: &TypedSym<T>, src: &[T]) -> Result<()> {
        let n = self.num_pes();
        if dest.count() != n * src.len() {
            return Err(ShmemError::Runtime("fcollect: dest.count() != num_pes * src.len()"));
        }
        let peers = self.collective_peers()?;
        self.barrier_all()?;
        let slot = self.my_pe() * src.len();
        self.write_local_slice(dest, slot, src)?;
        for pe in peers {
            if pe != self.my_pe() {
                self.put_slice(dest, slot, src, pe)?;
            }
        }
        self.barrier_all()
    }

    /// `shmem_alltoall`: PE *i*'s block *j* of `src` lands in PE *j*'s
    /// `dest` at slot *i*. Both arrays hold `num_pes * block` elements.
    /// Collective.
    pub fn alltoall<T: ShmemScalar>(
        &self,
        dest: &TypedSym<T>,
        src: &[T],
        block: usize,
    ) -> Result<()> {
        let n = self.num_pes();
        if src.len() != n * block || dest.count() != n * block {
            return Err(ShmemError::Runtime("alltoall: arrays must hold num_pes * block elements"));
        }
        let peers = self.collective_peers()?;
        self.barrier_all()?;
        let me = self.my_pe();
        for pe in peers {
            let chunk = &src[pe * block..(pe + 1) * block];
            if pe == me {
                self.write_local_slice(dest, me * block, chunk)?;
            } else {
                self.put_slice(dest, me * block, chunk, pe)?;
            }
        }
        self.barrier_all()
    }

    /// All-reduce `src` element-wise under `op`; every PE gets the full
    /// result.
    ///
    /// ```
    /// use shmem_core::{ReduceOp, ShmemConfig, ShmemWorld};
    /// let sums = ShmemWorld::run(ShmemConfig::fast_sim().with_hosts(4), |ctx| {
    ///     ctx.allreduce(ReduceOp::Sum, &[ctx.my_pe() as u64, 1]).unwrap()
    /// })
    /// .unwrap();
    /// assert!(sums.iter().all(|v| v == &[6, 4]));
    /// ```
    ///
    /// Every live PE contributes; the result folds the contributions in
    /// ascending PE order starting from `op`'s identity, so every PE gets
    /// the same value bit for bit (floating-point sums included).
    /// Collective, but it allocates nothing and makes no barrier: it runs
    /// on the world's collective scratch, reserved before user code ran.
    /// Each round moves up to one 1 KiB block of `src` (larger inputs loop
    /// through the same slots):
    ///
    /// 1. take the next epoch `e` (a call reserves the epochs of all its
    ///    rounds up front, so PEs stay in step when a call fails
    ///    part-way);
    /// 2. `put_with_signal` this PE's block, followed in the same put by
    ///    its proof (`e` and a checksum), into bank `e % 2` of every other
    ///    live PE, with `Set(e)` on this PE's signal word there;
    /// 3. wait until every other contributor's signal word reads `≥ e`
    ///    and its slot proves round `e`;
    /// 4. `quiet`;
    /// 5. fold the blocks in ascending PE order from the identity.
    ///
    /// **Why the proof.** On a clean link a signal follows its block on
    /// one ordered route, so the block is complete once the signal is
    /// seen. On a lossy link it is not: a block whose frame was rejected
    /// is retransmitted end to end, and the ring does not hold back the
    /// signal frame behind it. The slot then still holds the block of
    /// round `e - 2`. The proof turns that case into a longer wait, never
    /// a stale fold: a slot is taken only once its trailing epoch reads
    /// `e` and its checksum matches the bytes read.
    ///
    /// **Two banks suffice.** PE A writes round `e + 2`'s block into B's
    /// bank `e % 2` only after finishing round `e + 1`, which needs B's
    /// proven `e + 1` block; B sends that block only in round `e + 1`,
    /// after it finished round `e` — reading every block of bank `e % 2`
    /// included. So a block is never overwritten while it can still be
    /// read, and a signal word only moves up (`e`, then `e + 2`: A's
    /// closing `quiet` of round `e` saw its `Set(e)` acknowledged before
    /// A sends `Set(e + 2)`).
    ///
    /// **The closing `quiet` keeps teardown clean.** Seeing the others'
    /// blocks proves they reached this PE, not that this PE's blocks did.
    /// Waiting until every own put is acknowledged means no call returns
    /// with puts in flight: a PE whose last call is an allreduce leaves
    /// nothing for the retry sweeper to retransmit while the world tears
    /// down.
    ///
    /// A contributor that dies mid-call fails the wait with
    /// [`ShmemError::PeFailed`] (the wait polls the membership view, as
    /// the barriers do); after a failure the survivors take the failure
    /// report with [`quiet`](Self::quiet) and retry over the live set.
    pub fn allreduce<T: ShmemReduce>(&self, op: ReduceOp, src: &[T]) -> Result<Vec<T>> {
        // Only live PEs contribute; a dead PE's slot would hold stale
        // bytes, so it must not be folded into the result.
        let members: Vec<(usize, usize)> =
            self.collective_peers()?.into_iter().map(|pe| (pe, pe)).collect();
        self.allreduce_rounds(&self.coll, &members, op, src)
    }

    /// The schedule of [`Self::allreduce`] over `members`, `(slot, pe)`
    /// pairs in fold order, on `scratch` (shared with the team
    /// allreduce, whose slots are team ranks).
    pub(crate) fn allreduce_rounds<T: ShmemReduce>(
        &self,
        scratch: &CollScratch,
        members: &[(usize, usize)],
        op: ReduceOp,
        src: &[T],
    ) -> Result<Vec<T>> {
        let me = self.my_pe();
        let mine = members
            .iter()
            .find(|&&(_, pe)| pe == me)
            .map(|&(slot, _)| slot)
            .ok_or(ShmemError::Runtime("allreduce on a PE outside its member set"))?;
        let per_round = (BLOCK_BYTES / T::WIDTH).max(1);
        let rounds = src.len().div_ceil(per_round) as u64;
        let first = scratch.epoch.fetch_add(rounds, Ordering::SeqCst) + 1;
        let mut out = Vec::with_capacity(src.len());
        for (epoch, block) in (first..).zip(src.chunks(per_round)) {
            let bank = (epoch % 2) as usize;
            let mut bytes = T::slice_to_bytes(block);
            let proof = block_proof(epoch, &bytes);
            bytes.extend_from_slice(&proof);
            let own = scratch.slot(bank, mine)?;
            for &(_, pe) in members.iter().filter(|&&(_, pe)| pe != me) {
                self.put_with_signal(
                    &own,
                    0,
                    &bytes,
                    &scratch.sig,
                    bank * scratch.slots + mine,
                    epoch,
                    SignalOp::Set,
                    pe,
                )?;
            }
            let mut parts = self.collect_round(scratch, members, bank, epoch, bytes.len())?;
            self.quiet()?;
            let mut acc = vec![T::identity(op); block.len()];
            for &(_, pe) in members {
                let part =
                    if pe == me { block.to_vec() } else { T::bytes_to_vec(&parts.remove(0)) };
                for (a, b) in acc.iter_mut().zip(part) {
                    *a = T::combine(op, *a, b);
                }
            }
            out.extend(acc);
        }
        Ok(out)
    }

    /// Block until every member but this PE has signalled `epoch` in
    /// `bank` and its slot there proves `epoch`, and return their blocks
    /// (`len` slot bytes, proof stripped) in member order. Polls the
    /// failure detector like the barriers do: a member that is no longer
    /// live fails the wait with `PeFailed`.
    fn collect_round(
        &self,
        scratch: &CollScratch,
        members: &[(usize, usize)],
        bank: usize,
        epoch: u64,
        len: usize,
    ) -> Result<Vec<Vec<u8>>> {
        let me = self.my_pe();
        let others: Vec<usize> =
            members.iter().filter(|&&(_, pe)| pe != me).map(|&(slot, _)| slot).collect();
        let mut parts: Vec<Option<Vec<u8>>> = vec![None; others.len()];
        let deadline = Instant::now() + self.cfg.barrier_timeout;
        loop {
            let seen = self.heap.version();
            for (part, &slot) in parts.iter_mut().zip(&others).filter(|(p, _)| p.is_none()) {
                if self.read_local(&scratch.sig, bank * scratch.slots + slot)? < epoch {
                    continue;
                }
                let mut bytes = self.read_local_slice(&scratch.slot(bank, slot)?, 0, len)?;
                let proof = bytes.split_off(len - PROOF_BYTES);
                if proof == block_proof(epoch, &bytes) {
                    *part = Some(bytes);
                }
            }
            if parts.iter().all(Option::is_some) {
                return Ok(parts.into_iter().flatten().collect());
            }
            let view = self.node.membership().view();
            if let Some(&(_, pe)) = members.iter().find(|&&(_, pe)| !view.is_live(pe)) {
                // RESOLVES(none): every put of this round is tracked by the
                // net layer, whose fail_dest swept the dead member's.
                return Err(ShmemError::PeFailed { pe, epoch: view.epoch });
            }
            if Instant::now() >= deadline {
                // RESOLVES(none): a wait on local signal words; nothing of
                // this round is registered above the net layer.
                return Err(ShmemError::WaitTimeout);
            }
            self.heap.wait_change(
                seen,
                MEMBERSHIP_POLL.min(deadline.saturating_duration_since(Instant::now())),
            );
        }
    }

    /// `shmem_collect`: concatenate *variable-length* per-PE
    /// contributions in PE order into every PE's copy of `dest`.
    /// `dest.count()` must be at least the global total. Returns the
    /// total number of collected elements. Collective, with one barrier
    /// and no allocation: the sizes travel in one [`Self::allreduce`] of
    /// a one-hot size vector, the blocks follow as puts, and the exit
    /// barrier makes them visible.
    pub fn collect<T: ShmemScalar>(&self, dest: &TypedSym<T>, src: &[T]) -> Result<usize> {
        let me = self.my_pe();
        let mut sizes = vec![0u64; self.num_pes()];
        sizes[me] = src.len() as u64;
        // A dead PE contributes nothing, so its size stays zero and it
        // adds nothing to the offsets. The allreduce completes only once
        // every live PE has entered the call, so every `dest` is ready
        // to be overwritten: no entry barrier is needed.
        let sizes = self.allreduce(ReduceOp::Sum, &sizes)?;
        let total: u64 = sizes.iter().sum();
        if total as usize > dest.count() {
            return Err(ShmemError::Runtime("collect: dest too small for the global total"));
        }
        let my_off = sizes[..me].iter().sum::<u64>() as usize;
        self.write_local_slice(dest, my_off, src)?;
        for pe in self.collective_peers()? {
            if pe != me {
                self.put_slice(dest, my_off, src, pe)?;
            }
        }
        self.barrier_all()?;
        Ok(total as usize)
    }

    /// Reduce to `root` only (other PEs get `None`). Collective.
    pub fn reduce_to_root<T: ShmemReduce>(
        &self,
        op: ReduceOp,
        src: &[T],
        root: usize,
    ) -> Result<Option<Vec<T>>> {
        self.check_pe(root)?;
        let full = self.allreduce(op, src)?;
        Ok((self.my_pe() == root).then_some(full))
    }

    /// Convenience: broadcast one value from `root` to every PE and
    /// return it. Collective, but it allocates nothing and makes no
    /// barrier: the value's bytes travel in a wrapping `u8` sum
    /// [`Self::allreduce`] to which every PE but `root` contributes zeros.
    pub fn broadcast_value<T: ShmemScalar>(&self, value: T, root: usize) -> Result<T> {
        self.check_live_root(root)?;
        let mut bytes = T::slice_to_bytes(&[value]);
        if self.my_pe() != root {
            bytes.fill(0);
        }
        let bytes = self.allreduce(ReduceOp::Sum, &bytes)?;
        Ok(T::load_le(&bytes))
    }

    /// A broadcast root must be a PE of the world and live: no policy
    /// can help when the data source itself is gone.
    fn check_live_root(&self, root: usize) -> Result<()> {
        self.check_pe(root)?;
        if !self.is_pe_live(root) {
            // RESOLVES(none): pre-flight check, before any put is issued.
            return Err(ShmemError::PeFailed { pe: root, epoch: self.membership_epoch() });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_combine() {
        assert_eq!(i32::combine(ReduceOp::Sum, 3, 4), 7);
        assert_eq!(i32::combine(ReduceOp::Prod, 3, 4), 12);
        assert_eq!(i32::combine(ReduceOp::Min, 3, 4), 3);
        assert_eq!(i32::combine(ReduceOp::Max, 3, 4), 4);
        assert_eq!(u8::combine(ReduceOp::Sum, 255, 1), 0, "wrapping");
    }

    #[test]
    fn float_combine() {
        assert_eq!(f64::combine(ReduceOp::Sum, 1.5, 2.5), 4.0);
        assert_eq!(f64::combine(ReduceOp::Min, -1.0, 2.0), -1.0);
    }

    #[test]
    fn identities_are_neutral() {
        for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max] {
            for v in [-5i64, 0, 42] {
                assert_eq!(i64::combine(op, i64::identity(op), v), v, "{op:?} identity on {v}");
            }
            for v in [-1.5f64, 0.0, 3.25] {
                assert_eq!(f64::combine(op, f64::identity(op), v), v, "{op:?} identity on {v}");
            }
        }
    }
}
