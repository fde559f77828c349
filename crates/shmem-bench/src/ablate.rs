//! Ablations of the design choices DESIGN.md §6 flags (`repro ablate`),
//! each point the median over `reps` operations at PE 0:
//!
//! * **Barrier algorithm.** The paper's ring doorbell sweep against the
//!   dissemination barrier (its stated future work) and a naive
//!   centralized counter built from remote atomics, which the paper
//!   rejects: it needs `2(N-1)` AMO round trips through PE 0.
//! * **Get response chunk size** (the bypass/forwarding granularity)
//!   against a 512 KiB get from a neighbour on a 5-ring.
//! * **Service-thread wake delay** (the "Sleep & Wait" loop of Fig. 5)
//!   against a 64 KiB put to remote completion (put + quiet) on a 5-ring.

use std::time::{Duration, Instant};

use ntb_sim::TimeModel;
use shmem_core::{BarrierAlgorithm, CmpOp, Result, ShmemConfig, ShmemCtx, ShmemWorld, TypedSym};

use crate::report::{render_series_table, Series};
use crate::stats::Summary;

/// Ring sizes of the barrier ablation.
pub const BARRIER_HOSTS: [usize; 2] = [3, 5];
/// Get response chunk sizes swept (bytes).
pub const GET_CHUNKS: [u64; 3] = [16 << 10, 64 << 10, 256 << 10];
/// Service-thread wake delays swept (µs).
pub const WAKE_US: [u64; 3] = [30, 150, 600];
/// Words of the 512 KiB get/put buffer; the centralized counter follows.
const WORDS: usize = 64 << 10;

/// Median latencies (µs), indexed like the swept constants.
#[derive(Debug, Clone)]
pub struct AblateResult {
    /// Ring sweep, dissemination and centralized counter per barrier.
    pub barrier_us: [[f64; 2]; 3],
    /// 512 KiB get per response chunk.
    pub get_us: [f64; 3],
    /// 64 KiB put + quiet per wake delay.
    pub put_us: [f64; 3],
}

impl AblateResult {
    /// Render the three ablations as text tables.
    pub fn render(&self) -> String {
        let names = ["ring sweep", "dissemination", "centralized counter"];
        let barrier: Vec<Series> =
            names.iter().zip(&self.barrier_us).map(|(n, v)| Series::new(*n, v.to_vec())).collect();
        [
            render_series_table(
                "Ablation: barrier algorithm (us per barrier)",
                &BARRIER_HOSTS.map(|h| format!("{h} hosts")),
                &barrier,
            ),
            render_series_table(
                "Ablation: get response chunk (512 KiB get, us)",
                &GET_CHUNKS.map(|c| format!("{} KiB", c >> 10)),
                &[Series::new("get", self.get_us.to_vec())],
            ),
            render_series_table(
                "Ablation: service wake delay (64 KiB put + quiet, us)",
                &WAKE_US.map(|w| format!("{w} us")),
                &[Series::new("put", self.put_us.to_vec())],
            ),
        ]
        .join("\n")
    }
}

/// Run every ablation under `model`, `reps` measured operations a point.
pub fn run_ablate(model: &TimeModel, reps: usize) -> AblateResult {
    let world = |hosts| {
        let mut w = ShmemConfig::paper().with_hosts(hosts).with_model(model.clone());
        w.barrier_timeout = Duration::from_secs(120);
        w
    };
    let barrier = |alg| {
        let world = |h| world(h).with_barrier_algorithm(alg);
        BARRIER_HOSTS.map(|h| median_us(world(h), reps, true, |ctx, _, _| ctx.barrier_all()))
    };
    AblateResult {
        barrier_us: [
            barrier(BarrierAlgorithm::RingSweep),
            barrier(BarrierAlgorithm::Dissemination),
            BARRIER_HOSTS.map(|h| median_us(world(h), reps, true, centralized_barrier)),
        ],
        get_us: GET_CHUNKS.map(|chunk| {
            let mut w = world(5);
            w.net = w.net.with_get_chunk(chunk);
            median_us(w, reps, false, |ctx, buf, _| ctx.get_slice(buf, 0, WORDS, 1).map(drop))
        }),
        put_us: WAKE_US.map(|wake| {
            let model =
                TimeModel { interrupt_service_delay: Duration::from_micros(wake), ..model.clone() };
            median_us(world(5).with_model(model), reps, false, |ctx, buf, _| {
                ctx.put_slice(buf, 0, &[0x5A; WORDS / 8], 1)?;
                ctx.quiet()
            })
        }),
    }
}

/// Naive centralized barrier for epoch `epoch` (1-based): every PE
/// increments the counter word on PE 0 and waits, PE 0 on its own copy,
/// the others polling with remote fetches, for the epoch's target count.
fn centralized_barrier(ctx: &ShmemCtx, buf: &TypedSym<u64>, epoch: u64) -> Result<()> {
    ctx.atomic_fetch_add(buf, WORDS, 1u64, 0)?;
    let target = epoch * ctx.num_pes() as u64;
    if ctx.my_pe() == 0 {
        ctx.wait_until(buf, WORDS, CmpOp::Ge, target)?;
    } else {
        while ctx.atomic_fetch(buf, WORDS, 0)? < target {
            std::thread::yield_now();
        }
    }
    Ok(())
}

/// Median µs of `op(ctx, buffer, epoch)` at PE 0 over `reps` runs after
/// one warm-up (epoch 1), in a fresh world with a zeroed symmetric buffer
/// of `WORDS + 1` words. Every PE runs `op` when `collective`, only PE 0
/// otherwise.
fn median_us(
    world: ShmemConfig,
    reps: usize,
    collective: bool,
    op: impl Fn(&ShmemCtx, &TypedSym<u64>, u64) -> Result<()> + Send + Sync,
) -> f64 {
    let samples = ShmemWorld::run(world, |ctx| {
        let buf = ctx.calloc_array::<u64>(WORDS + 1).expect("ablation buffer");
        let mut samples = Vec::with_capacity(reps);
        for epoch in 1..=reps as u64 + 1 {
            let t0 = Instant::now();
            if collective || ctx.my_pe() == 0 {
                op(ctx, &buf, epoch).expect("ablation op");
            }
            if epoch > 1 {
                samples.push(t0.elapsed());
            }
        }
        ctx.barrier_all().expect("closing barrier");
        samples
    })
    .expect("ablation world");
    Summary::from_samples(&samples[0]).median_us
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every ablation point runs and reports a positive latency, and the
    /// two parameter sweeps move in the direction the knobs predict.
    #[test]
    fn ablations_run_and_knobs_move_latency() {
        let _guard = crate::timing_test_guard();
        let r = run_ablate(&TimeModel::paper(), 5);
        for v in r.barrier_us.iter().flatten().chain(&r.get_us).chain(&r.put_us) {
            assert!(v.is_finite() && *v > 0.0, "{r:?}");
        }
        assert!(r.get_us[0] > r.get_us[2], "small get chunks must cost more: {:?}", r.get_us);
        assert!(r.put_us[2] > r.put_us[0], "a slower wake must cost more: {:?}", r.put_us);
        assert!(r.render().contains("centralized counter"));
    }
}
