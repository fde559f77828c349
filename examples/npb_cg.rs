//! A distributed conjugate-gradient solver — the NPB "CG" kernel shape.
//!
//! The paper's motivation cites scientific computing, and its reference
//! [12] benchmarks OpenSHMEM with the NAS Parallel Benchmarks; this
//! example reproduces the CG communication pattern on a 2x2 NTB torus:
//! row-partitioned sparse mat-vec with one-sided halo exchange, plus
//! `allreduce` dot products every iteration.
//!
//! We solve `A x = b` for the 1-D shifted Laplacian
//! `A = tridiag(-1, 2+σ, -1)` (symmetric positive definite), and check
//! the distributed solver against a serial oracle.
//!
//! ```text
//! cargo run --release --example npb_cg
//! ```

use shmem_ntb::prelude::*;

const PES: usize = 4;
const ROWS_PER_PE: usize = 128;
const SIGMA: f64 = 0.1;
const MAX_ITERS: usize = 400;
const TOL: f64 = 1e-10;

/// y = A v for the global tridiagonal operator, given v with halos:
/// `v[0]` is the left halo, `v[1..=k]` the local rows, `v[k+1]` the right
/// halo (zero at the global boundary).
fn local_matvec(v: &[f64], k: usize) -> Vec<f64> {
    (1..=k).map(|i| -v[i - 1] + (2.0 + SIGMA) * v[i] - v[i + 1]).collect()
}

/// Serial oracle CG on the full system.
fn serial_cg(n: usize, b: &[f64]) -> Vec<f64> {
    let matvec = |v: &[f64]| -> Vec<f64> {
        (0..n)
            .map(|i| {
                let left = if i > 0 { v[i - 1] } else { 0.0 };
                let right = if i + 1 < n { v[i + 1] } else { 0.0 };
                -left + (2.0 + SIGMA) * v[i] - right
            })
            .collect()
    };
    let dot = |a: &[f64], c: &[f64]| a.iter().zip(c).map(|(x, y)| x * y).sum::<f64>();
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut rr = dot(&r, &r);
    for _ in 0..MAX_ITERS {
        if rr.sqrt() < TOL {
            break;
        }
        let ap = matvec(&p);
        let alpha = rr / dot(&p, &ap);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rr_new = dot(&r, &r);
        let beta = rr_new / rr;
        rr = rr_new;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
    }
    x
}

fn rhs(i: usize) -> f64 {
    ((i as f64) * 0.05).sin() + 1.0
}

fn main() {
    let n = PES * ROWS_PER_PE;
    // CG is dominated by allreduce dot products; on a 2x2 torus the
    // barrier runs in log-depth dissemination rounds instead of ring
    // sweeps, and the allreduce needs no barrier at all.
    let cfg = ShmemConfig::fast_sim().with_hosts(PES).with_topology(Topology::torus(2, 2));

    let (pieces, iters): (Vec<Vec<f64>>, Vec<usize>) = {
        let results = ShmemWorld::run(cfg, |ctx| {
            let me = ctx.my_pe();
            let pes = ctx.num_pes();
            let k = ROWS_PER_PE;
            let base = me * k;
            // Symmetric search-direction vector with halo slots:
            // [left_halo, p_1..p_k, right_halo].
            let p_sym = ctx.calloc_array::<f64>(k + 2).expect("p vector");

            let b: Vec<f64> = (0..k).map(|i| rhs(base + i)).collect();
            let mut x = vec![0.0f64; k];
            let mut r = b.clone();
            let mut p: Vec<f64> = r.clone();
            let dot_local = |a: &[f64], c: &[f64]| a.iter().zip(c).map(|(u, v)| u * v).sum::<f64>();
            let mut rr = ctx.allreduce(ReduceOp::Sum, &[dot_local(&r, &r)]).expect("rr")[0];
            let mut iters = 0usize;

            for _ in 0..MAX_ITERS {
                if rr.sqrt() < TOL {
                    break;
                }
                iters += 1;
                // Publish p locally and exchange halos one-sidedly:
                // my first element -> left neighbour's right halo,
                // my last element -> right neighbour's left halo.
                ctx.write_local_slice(&p_sym, 1, &p).expect("publish p");
                if me > 0 {
                    ctx.put(&p_sym, k + 1, p[0], me - 1).expect("left halo");
                }
                if me + 1 < pes {
                    ctx.put(&p_sym, 0, p[k - 1], me + 1).expect("right halo");
                }
                ctx.barrier_all().expect("halo barrier");
                let mut v = ctx.read_local_slice::<f64>(&p_sym, 0, k + 2).expect("read p");
                // Global boundary rows see zero halos.
                if me == 0 {
                    v[0] = 0.0;
                }
                if me + 1 == pes {
                    v[k + 1] = 0.0;
                }
                let ap = local_matvec(&v, k);
                let pap = ctx.allreduce(ReduceOp::Sum, &[dot_local(&p, &ap)]).expect("pAp")[0];
                let alpha = rr / pap;
                for i in 0..k {
                    x[i] += alpha * p[i];
                    r[i] -= alpha * ap[i];
                }
                let rr_new = ctx.allreduce(ReduceOp::Sum, &[dot_local(&r, &r)]).expect("rr'")[0];
                let beta = rr_new / rr;
                rr = rr_new;
                for i in 0..k {
                    p[i] = r[i] + beta * p[i];
                }
                // Nobody may overwrite halos while others still read p_sym.
                ctx.barrier_all().expect("iteration barrier");
            }
            (x, iters)
        })
        .expect("world");
        results.into_iter().unzip()
    };

    let x_dist: Vec<f64> = pieces.into_iter().flatten().collect();
    let b_full: Vec<f64> = (0..n).map(rhs).collect();
    let x_ref = serial_cg(n, &b_full);
    let max_err = x_dist.iter().zip(&x_ref).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);

    println!("NPB-style CG: n = {n} over {PES} PEs, converged in {} iterations", iters[0]);
    println!("  max |x_distributed - x_serial| = {max_err:.3e}");
    assert!(iters.iter().all(|&i| i == iters[0]), "lockstep iteration counts");
    assert!(max_err < 1e-8, "distributed CG must match the serial oracle");
    println!("  OK: one-sided halo exchange + allreduce reproduce the serial solve");
}
