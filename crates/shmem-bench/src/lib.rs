//! # shmem-bench — the paper's evaluation, regenerated
//!
//! One module per figure of the paper's §IV:
//!
//! * [`fig8`] — raw NTB link transfer rate, independent vs
//!   ring-simultaneous, per connection and total (Fig. 8(a)–(d)).
//! * [`fig9`] — OpenSHMEM Put/Get latency and throughput across
//!   {DMA, memcpy} × {1 hop, 2 hops} (Fig. 9(a)–(d)).
//! * [`fig10`] — `shmem_barrier_all` latency following Puts of varying
//!   size, same four configurations (Fig. 10).
//!
//! Beyond the paper, [`transport`] benchmarks the batched/coalesced
//! transport hot path against one doorbell per message and
//! emits `BENCH_transport.json` for cross-PR tracking, and [`overload`]
//! sweeps offered load past saturation to measure goodput retention
//! under the flow-control/deadline/shedding machinery
//! (`BENCH_overload.json`).
//!
//! The `repro` binary drives all of them and prints paper-style series;
//! the criterion benches under `benches/` run scaled-down versions for
//! regression tracking. Absolute numbers depend on the calibrated
//! [`TimeModel`](ntb_sim::TimeModel) — the claim reproduced is the
//! *shape*: who wins, by what factor, and where the curves bend (see
//! `EXPERIMENTS.md`).

pub mod compare;
pub mod fig10;
pub mod fig8;
pub mod fig9;
pub mod overload;
pub mod report;
pub mod scale;
pub mod sizes;
pub mod stats;
pub mod transport;

pub use report::{render_metrics_report, render_series_table, Series};
pub use sizes::{paper_sizes, size_label};
pub use stats::{mb_per_sec, Summary};

/// Wall-clock-sensitive tests must not overlap (cargo runs tests of one
/// binary in parallel threads, and concurrent simulated worlds corrupt
/// each other's timing on small machines). Each timing test holds this.
#[cfg(test)]
pub(crate) fn timing_test_guard() -> parking_lot::MutexGuard<'static, ()> {
    static LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
    LOCK.lock()
}

/// Run a wall-clock shape check with bounded retries: ambient load on a
/// shared measurement machine can mask a real timing signal, but cannot
/// reliably fabricate one, so a pass on any attempt is meaningful.
/// Panics with the last failure if every attempt fails.
#[cfg(test)]
pub(crate) fn assert_shape_with_retries(attempts: usize, check: impl Fn() -> Result<(), String>) {
    let mut last = String::new();
    for i in 0..attempts {
        match check() {
            Ok(()) => return,
            Err(msg) => {
                eprintln!("shape check attempt {}/{attempts} failed: {msg}", i + 1);
                last = msg;
            }
        }
    }
    panic!("shape check failed on all {attempts} attempts; last: {last}");
}
