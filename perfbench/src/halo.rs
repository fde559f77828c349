//! `halo_ring3`: the 1-D heat stencil of `examples/stencil_heat.rs` on the
//! paper's 3-host ring. Each step is two single-element halo puts, a
//! `quiet`, a ring-sweep `barrier_all`, the local update and a second
//! barrier. (`barrier_all` starts with a `quiet` of its own, so the
//! explicit one only moves the wait for remote completion where it can
//! be timed.) Every solve is checked against the serial oracle and its
//! conserved total heat.

use std::time::Instant;

use shmem_core::{ReduceOp, ShmemCtx, Topology, TypedSym};

use crate::measure::{us, SplitMix64};
use crate::rma;
use crate::trace::SpanLog;
use crate::world::{Nodes, PeReport, Plan};

pub const PES: usize = 3;
const CELLS: usize = 64;
const ALPHA: f64 = 0.25;
const STEPS: usize = 100;
const SOLVES: usize = 4;
const PROBE_ROUNDS: usize = 9;

pub fn topology() -> Topology {
    Topology::ring(PES)
}

/// Seeded initial rods of one world and their oracle results.
pub struct Inputs {
    profiles: Vec<Vec<f64>>,
    finals: Vec<Vec<f64>>,
}

impl Inputs {
    pub fn new(seed: u64, world: u64) -> Inputs {
        let mut g = SplitMix64::new(seed, 0x4841_4c4f ^ (world << 8));
        let profiles: Vec<Vec<f64>> = (0..SOLVES)
            .map(|_| {
                (0..CELLS * PES)
                    .map(|_| 100.0 * g.next_f64() + if g.next_f64() < 0.15 { 50.0 } else { 0.0 })
                    .collect()
            })
            .collect();
        let finals = profiles.iter().map(|p| oracle(p, STEPS)).collect();
        Inputs { profiles, finals }
    }
}

/// Single-threaded oracle: the same diffusion on the whole periodic rod.
fn oracle(rod0: &[f64], steps: usize) -> Vec<f64> {
    let total = rod0.len();
    let mut rod = rod0.to_vec();
    for _ in 0..steps {
        let prev = rod.clone();
        for i in 0..total {
            let left = prev[(i + total - 1) % total];
            let right = prev[(i + 1) % total];
            rod[i] = prev[i] + ALPHA * (left - 2.0 * prev[i] + right);
        }
    }
    rod
}

/// One stencil step; `None` once an op failed (the world then stops
/// issuing collectives rather than running on inconsistent state).
fn step(
    ctx: &ShmemCtx,
    field: &TypedSym<f64>,
    op: u64,
    log: &mut SpanLog,
    rep: &mut PeReport,
) -> Option<()> {
    let me = ctx.my_pe();
    let left = (me + PES - 1) % PES;
    let right = (me + 1) % PES;
    let t = &mut rep.tally;
    let st = log.open("step", op);
    let t_step = Instant::now();
    let first = t.op("read", ctx.read_local::<f64>(field, 1))?;
    let last = t.op("read", ctx.read_local::<f64>(field, CELLS))?;
    let t_put = Instant::now();
    let (res, local) = log.time("core.put", st, op, || ctx.put(field, CELLS + 1, first, left));
    t.op("halo put", res)?;
    let (res, _) = log.time("core.put", st, op, || ctx.put(field, 0, last, right));
    t.op("halo put", res)?;
    let (res, _) = log.time("core.quiet", st, op, || ctx.quiet());
    t.op("quiet", res)?;
    let remote = t_put.elapsed();
    let (res, _) = log.time("core.barrier", st, op, || ctx.barrier_all());
    t.op("barrier", res)?;
    let (res, _) = log.time("app.compute", st, op, || {
        let v = ctx.read_local_slice::<f64>(field, 0, CELLS + 2)?;
        let next: Vec<f64> =
            (1..=CELLS).map(|i| v[i] + ALPHA * (v[i - 1] - 2.0 * v[i] + v[i + 1])).collect();
        ctx.write_local_slice(field, 1, &next)
    });
    t.op("local update", res)?;
    let (res, _) = log.time("core.barrier", st, op, || ctx.barrier_all());
    t.op("barrier", res)?;
    log.close(st);
    if me == 0 {
        rep.samples.step_us.push(us(t_step.elapsed()));
        rep.samples.put_local_us.push(us(local));
        rep.samples.put_remote_us.push(us(remote));
    }
    Some(())
}

/// One solve: seed the rod, time `STEPS` steps, check the oracle and the
/// conserved total.
#[allow(clippy::too_many_arguments)]
fn solve(
    ctx: &ShmemCtx,
    field: &TypedSym<f64>,
    s: usize,
    inp: &Inputs,
    plan: &Plan,
    nodes: &Nodes,
    log: &mut SpanLog,
    rep: &mut PeReport,
) -> Option<()> {
    let me = ctx.my_pe();
    let mine = me * CELLS..(me + 1) * CELLS;
    rep.tally.op("init", ctx.write_local_slice(field, 1, &inp.profiles[s][mine.clone()]))?;
    let (res, _) = log.time("core.barrier", None, 0, || ctx.barrier_all());
    rep.tally.op("barrier", res)?;
    let c0 = (plan.traced && me == 0).then(|| nodes.snapshot());
    let t_solve = Instant::now();
    for i in 0..STEPS {
        step(ctx, field, (s * STEPS + i) as u64, log, rep)?;
    }
    if me == 0 {
        rep.samples.solve_s.push(t_solve.elapsed().as_secs_f64());
    }
    if let Some(c0) = c0 {
        rep.phase = rep.phase.plus(&nodes.snapshot().minus(&c0));
    }
    let t = &mut rep.tally;
    let got = t.op("read", ctx.read_local_slice::<f64>(field, 1, CELLS))?;
    let want = &inp.finals[s][mine];
    t.check("stencil oracle", got.iter().zip(want).all(|(a, b)| (a - b).abs() < 1e-9));
    let heat: f64 = got.iter().sum();
    let (res, _) = log.time("core.allreduce", None, 0, || ctx.allreduce(ReduceOp::Sum, &[heat]));
    let total = t.op("allreduce", res)?[0];
    let want_total: f64 = inp.profiles[s].iter().sum();
    t.check("conserved heat", (total - want_total).abs() <= 1e-9 * want_total.abs().max(1.0));
    Some(())
}

pub fn body(
    ctx: &ShmemCtx,
    nodes: &Nodes,
    plan: &Plan,
    inp: &Inputs,
    payloads: &rma::Payloads,
) -> PeReport {
    let mut rep = PeReport::default();
    let mut log = SpanLog::new(plan.traced, ctx.my_pe());
    // Layout: [left_halo, cell_0 .. cell_{k-1}, right_halo].
    let Some(field) = rep.tally.op("malloc", ctx.malloc_array::<f64>(CELLS + 2)) else {
        return rep;
    };
    let Some(regions) = rma::alloc(ctx, payloads, &mut rep.tally) else {
        return rep;
    };
    for s in 0..SOLVES {
        if solve(ctx, &field, s, inp, plan, nodes, &mut log, &mut rep).is_none() {
            return rep;
        }
    }
    rma::probe(ctx, &regions, payloads, PROBE_ROUNDS, plan, nodes, &mut log, &mut rep);
    rep.spans = log.into_spans();
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_conserves_heat() {
        let inp = Inputs::new(1, 0);
        let before: f64 = inp.profiles[0].iter().sum();
        let after: f64 = inp.finals[0].iter().sum();
        assert!((before - after).abs() < 1e-9 * before);
        assert_ne!(inp.profiles[0], Inputs::new(2, 0).profiles[0]);
    }
}
