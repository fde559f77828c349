//! `cg_torus4`: the NPB-style conjugate-gradient solver of
//! `examples/npb_cg.rs` on a 2x2 torus. Each iteration publishes the
//! search direction with one-sided halo puts (PE 1 -> PE 2 crosses two
//! hops, so the forwarder carries it), `quiet`s, barriers, and reduces two
//! dot products with `allreduce`. The serial oracle folds the per-PE
//! partial dot products in PE order, exactly as `allreduce` does, so the
//! distributed solve must match it bit for bit, iteration count included.

use std::time::Instant;

use shmem_core::{ReduceOp, ShmemCtx, Topology, TypedSym};

use crate::measure::{us, SplitMix64};
use crate::rma;
use crate::trace::SpanLog;
use crate::world::{Nodes, PeReport, Plan};

pub const PES: usize = 4;
const ROWS: usize = 128;
const SIGMA: f64 = 0.1;
const MAX_ITERS: usize = 400;
const TOL: f64 = 1e-10;
const SOLVES: usize = 3;
const PROBE_ROUNDS: usize = 9;

pub fn topology() -> Topology {
    Topology::torus(2, 2)
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `A v` on one PE's rows for `A = tridiag(-1, 2+σ, -1)`; `v` carries the
/// left halo at 0 and the right halo at `k + 1`.
fn local_matvec(v: &[f64], k: usize) -> Vec<f64> {
    (1..=k).map(|i| -v[i - 1] + (2.0 + SIGMA) * v[i] - v[i + 1]).collect()
}

/// Sum of the per-PE partial dot products in PE order: the allreduce fold.
fn blocked_dot(a: &[f64], b: &[f64]) -> f64 {
    a.chunks(ROWS).zip(b.chunks(ROWS)).fold(0.0, |acc, (x, y)| acc + dot(x, y))
}

/// Serial CG with the distributed arithmetic; returns `(x, iterations)`.
fn oracle(b: &[f64]) -> (Vec<f64>, usize) {
    let n = b.len();
    let matvec = |v: &[f64]| -> Vec<f64> {
        let mut padded = Vec::with_capacity(n + 2);
        padded.push(0.0);
        padded.extend_from_slice(v);
        padded.push(0.0);
        local_matvec(&padded, n)
    };
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut rr = blocked_dot(&r, &r);
    let mut iters = 0;
    while iters < MAX_ITERS && rr.sqrt() >= TOL {
        iters += 1;
        let ap = matvec(&p);
        let alpha = rr / blocked_dot(&p, &ap);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rr_new = blocked_dot(&r, &r);
        let beta = rr_new / rr;
        rr = rr_new;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
    }
    (x, iters)
}

/// Seeded right-hand sides of one world and their oracle solutions.
pub struct Inputs {
    rhs: Vec<Vec<f64>>,
    solutions: Vec<(Vec<f64>, usize)>,
}

impl Inputs {
    pub fn new(seed: u64, world: u64) -> Inputs {
        let mut g = SplitMix64::new(seed, 0x4347 ^ (world << 8));
        let rhs: Vec<Vec<f64>> =
            (0..SOLVES).map(|_| (0..ROWS * PES).map(|_| 0.5 + g.next_f64()).collect()).collect();
        let solutions = rhs.iter().map(|b| oracle(b)).collect();
        Inputs { rhs, solutions }
    }
}

/// One solve to `TOL`; `None` once an op failed.
#[allow(clippy::too_many_arguments)]
fn solve(
    ctx: &ShmemCtx,
    p_sym: &TypedSym<f64>,
    s: usize,
    inp: &Inputs,
    plan: &Plan,
    nodes: &Nodes,
    log: &mut SpanLog,
    rep: &mut PeReport,
) -> Option<()> {
    let me = ctx.my_pe();
    let k = ROWS;
    let mut x = vec![0.0f64; k];
    let mut r = inp.rhs[s][me * k..(me + 1) * k].to_vec();
    let mut p = r.clone();
    let (res, _) =
        log.time("core.allreduce", None, 0, || ctx.allreduce(ReduceOp::Sum, &[dot(&r, &r)]));
    let mut rr = rep.tally.op("allreduce", res)?[0];
    let c0 = (plan.traced && me == 0).then(|| nodes.snapshot());
    let t_solve = Instant::now();
    let mut iters = 0;
    while iters < MAX_ITERS && rr.sqrt() >= TOL {
        let op = (s * MAX_ITERS + iters) as u64;
        iters += 1;
        let t = &mut rep.tally;
        let st = log.open("step", op);
        let t_step = Instant::now();
        t.op("publish p", ctx.write_local_slice(p_sym, 1, &p))?;
        let t_put = Instant::now();
        let mut local = None;
        if me > 0 {
            let (res, d) = log.time("core.put", st, op, || ctx.put(p_sym, k + 1, p[0], me - 1));
            t.op("halo put", res)?;
            local = Some(d);
        }
        if me + 1 < PES {
            let (res, d) = log.time("core.put", st, op, || ctx.put(p_sym, 0, p[k - 1], me + 1));
            t.op("halo put", res)?;
            local.get_or_insert(d);
        }
        let (res, _) = log.time("core.quiet", st, op, || ctx.quiet());
        t.op("quiet", res)?;
        let remote = t_put.elapsed();
        let (res, _) = log.time("core.barrier", st, op, || ctx.barrier_all());
        t.op("barrier", res)?;
        let (res, _) = log.time("app.compute", st, op, || {
            let mut v = ctx.read_local_slice::<f64>(p_sym, 0, k + 2)?;
            // Global boundary rows see zero halos.
            if me == 0 {
                v[0] = 0.0;
            }
            if me + 1 == PES {
                v[k + 1] = 0.0;
            }
            let ap = local_matvec(&v, k);
            let pap = dot(&p, &ap);
            Ok::<_, shmem_core::ShmemError>((ap, pap))
        });
        let (ap, pap) = t.op("matvec", res)?;
        let (res, _) = log.time("core.allreduce", st, op, || ctx.allreduce(ReduceOp::Sum, &[pap]));
        let alpha = rr / t.op("allreduce", res)?[0];
        let (rr_local, _) = log.time("app.compute", st, op, || {
            for i in 0..k {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            dot(&r, &r)
        });
        let (res, _) =
            log.time("core.allreduce", st, op, || ctx.allreduce(ReduceOp::Sum, &[rr_local]));
        let rr_new = t.op("allreduce", res)?[0];
        let beta = rr_new / rr;
        rr = rr_new;
        log.time("app.compute", st, op, || {
            for i in 0..k {
                p[i] = r[i] + beta * p[i];
            }
        });
        // Nobody may overwrite halos while others still read p_sym.
        let (res, _) = log.time("core.barrier", st, op, || ctx.barrier_all());
        t.op("barrier", res)?;
        log.close(st);
        if me == 0 {
            rep.samples.step_us.push(us(t_step.elapsed()));
            rep.samples.put_local_us.push(us(local.unwrap_or_default()));
            rep.samples.put_remote_us.push(us(remote));
        }
    }
    if me == 0 {
        rep.samples.solve_s.push(t_solve.elapsed().as_secs_f64());
    }
    if let Some(c0) = c0 {
        rep.phase = rep.phase.plus(&nodes.snapshot().minus(&c0));
    }
    let (want_x, want_iters) = &inp.solutions[s];
    rep.tally.check("CG iteration count", iters == *want_iters);
    let want = &want_x[me * k..(me + 1) * k];
    rep.tally.check("CG oracle", x.iter().zip(want).all(|(a, b)| (a - b).abs() < 1e-9));
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
    // Search direction with halo slots: [left_halo, p_1..p_k, right_halo].
    let Some(p_sym) = rep.tally.op("calloc", ctx.calloc_array::<f64>(ROWS + 2)) else {
        return rep;
    };
    let Some(regions) = rma::alloc(ctx, payloads, &mut rep.tally) else {
        return rep;
    };
    for s in 0..SOLVES {
        if solve(ctx, &p_sym, s, inp, plan, nodes, &mut log, &mut rep).is_none() {
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
    fn oracle_converges() {
        let inp = Inputs::new(1, 0);
        let (x, iters) = &inp.solutions[0];
        assert!(*iters > 10 && *iters < MAX_ITERS, "{iters} iterations");
        let mut padded = vec![0.0];
        padded.extend_from_slice(x);
        padded.push(0.0);
        let ax = local_matvec(&padded, x.len());
        let err = ax.iter().zip(&inp.rhs[0]).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(err < 1e-8, "residual {err}");
    }
}
