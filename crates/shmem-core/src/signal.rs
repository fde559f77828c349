//! Put-with-signal (`shmem_put_signal`, OpenSHMEM 1.5).
//!
//! A put followed by a signal-word update that the target can wait on,
//! with the guarantee that *when the signal is visible, the data is too* —
//! without the origin paying a full `quiet` round trip between them.
//!
//! On this transport the guarantee comes from in-order delivery along a
//! fixed route: the data chunks and the trailing signal put travel the
//! same sequence of links (the route to a given destination is
//! deterministic), the forwarders keep a FIFO per link, and every link's
//! transmit ring hands frames on in the order they were published — also
//! when a batch wraps past the ring's last slot or a header lands while
//! the receiver is mid-scan (see `ntb_net::slots::drain_in_order`). The
//! signal is published after the last data chunk, so it lands last. Every
//! frame rides the ring — data too large for a slot's lane too, staged in
//! a window area the slot record points at, and an additive signal's AMO
//! request — so no `quiet` is needed between data and signal. The tests
//! `signal_never_overtakes_its_data_on_two_hop_torus_routes` and
//! `large_signalled_puts_need_no_quiet` (`crates/shmem-core/tests/collectives.rs`)
//! check the guarantee on the forwarded routes of a 2x2 torus at paper
//! timing.
//!
//! The guarantee covers frames that arrive. On a lossy link a data frame
//! rejected as corrupt comes back only by end-to-end retransmission, and
//! the ring does not hold the signal frame behind it back, so the signal
//! can be seen first. A consumer that must stay exact under loss checks
//! the data itself, as `allreduce` does with the epoch proof each block
//! carries.

use crate::ctx::{OpOptions, ShmemCtx};
use crate::error::Result;
use crate::symmetric::TypedSym;
use crate::sync::CmpOp;
use crate::types::{ShmemAtomicInt, ShmemScalar};
use ntb_sim::TransferMode;

/// How the signal word is updated (`SHMEM_SIGNAL_SET` / `_ADD`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalOp {
    /// Overwrite the signal word.
    Set,
    /// Add to the signal word (useful when several producers target the
    /// same consumer).
    Add,
}

impl ShmemCtx {
    /// `shmem_put_signal`: put `data` into `sym[index..]` at PE `pe`, then
    /// update the signal word `sig[sig_index]` there with
    /// `op`/`sig_value`. When the target observes the signal, the data is
    /// guaranteed visible. Locally blocking like `put`.
    #[allow(clippy::too_many_arguments)]
    pub fn put_with_signal<T: ShmemScalar, S: ShmemAtomicInt>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        data: &[T],
        sig: &TypedSym<S>,
        sig_index: usize,
        sig_value: S,
        op: SignalOp,
        pe: usize,
    ) -> Result<()> {
        self.put_with_signal_mode(
            sym,
            index,
            data,
            sig,
            sig_index,
            sig_value,
            op,
            pe,
            self.default_mode(),
        )
    }

    /// [`put_with_signal`](Self::put_with_signal) with an explicit
    /// transfer mode.
    #[allow(clippy::too_many_arguments)]
    pub fn put_with_signal_mode<T: ShmemScalar, S: ShmemAtomicInt>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        data: &[T],
        sig: &TypedSym<S>,
        sig_index: usize,
        sig_value: S,
        op: SignalOp,
        pe: usize,
        mode: TransferMode,
    ) -> Result<()> {
        self.check_pe(pe)?;
        let opts = OpOptions::new().mode(mode);
        // Stage the data without its doorbell: the signal's flush
        // publishes data and signal as one batch, in order.
        self.put_slice_opts(sym, index, data, pe, opts.coalesce(true))?;
        match op {
            // An ordinary put of the signal word: same route as the data,
            // in order behind it.
            SignalOp::Set => self.put_slice_opts(sig, sig_index, &[sig_value], pe, opts),
            // Additive signals must be atomic across producers.
            SignalOp::Add => self.atomic_add(sig, sig_index, sig_value, pe),
        }
    }

    /// `shmem_signal_wait_until`: block until this PE's signal word
    /// satisfies `cmp target` and return its value.
    pub fn signal_wait_until<S: ShmemAtomicInt + PartialOrd>(
        &self,
        sig: &TypedSym<S>,
        sig_index: usize,
        cmp: CmpOp,
        target: S,
    ) -> Result<S> {
        // DEADLINE-CLIPPED: delegate — `wait_until` derives its deadline
        // from `cfg.wait_timeout` and clips each poll tick to it.
        self.wait_until(sig, sig_index, cmp, target)
    }

    /// `shmem_signal_fetch`: read this PE's signal word.
    pub fn signal_fetch<S: ShmemAtomicInt>(
        &self,
        sig: &TypedSym<S>,
        sig_index: usize,
    ) -> Result<S> {
        self.read_local(sig, sig_index)
    }
}
