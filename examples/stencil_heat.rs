//! 1-D heat diffusion with halo exchange — the classic PGAS stencil.
//!
//! The rod is split across PEs; each time step every PE puts its boundary
//! cells into its neighbours' halo slots (one-sided, no receiver code)
//! and the ring barrier separates the steps. The simulated result is
//! checked against a single-threaded oracle, so the example doubles as a
//! whole-stack correctness demo.
//!
//! ```text
//! cargo run --release --example stencil_heat
//! ```

use shmem_ntb::prelude::*;

const CELLS_PER_PE: usize = 64;
const STEPS: usize = 200;
const ALPHA: f64 = 0.25;
const PES: usize = 4;

/// Single-threaded oracle: the same diffusion on the whole rod.
fn oracle(total: usize, steps: usize) -> Vec<f64> {
    let mut rod: Vec<f64> = (0..total).map(initial_temp).collect();
    for _ in 0..steps {
        let prev = rod.clone();
        for i in 0..total {
            let left = if i == 0 { prev[total - 1] } else { prev[i - 1] };
            let right = if i == total - 1 { prev[0] } else { prev[i + 1] };
            rod[i] = prev[i] + ALPHA * (left - 2.0 * prev[i] + right);
        }
    }
    rod
}

/// A bumpy initial temperature profile.
fn initial_temp(i: usize) -> f64 {
    100.0 * ((i as f64) * 0.1).sin().abs() + if i.is_multiple_of(7) { 50.0 } else { 0.0 }
}

fn main() {
    // A 1-D halo exchange only ever talks to ring neighbours, so the
    // ring is the matching fabric (a torus would waste its extra links).
    let cfg = ShmemConfig::fast_sim().with_hosts(PES).with_topology(Topology::ring(PES));
    let total = CELLS_PER_PE * PES;

    let pieces = ShmemWorld::run(cfg, |ctx| {
        let me = ctx.my_pe();
        let n = ctx.num_pes();
        let left_pe = (me + n - 1) % n;
        let right_pe = (me + 1) % n;

        // Layout: [left_halo, cell_0 .. cell_{k-1}, right_halo].
        let field = ctx.malloc_array::<f64>(CELLS_PER_PE + 2).expect("field");
        let base = me * CELLS_PER_PE;
        for i in 0..CELLS_PER_PE {
            ctx.write_local(&field, i + 1, initial_temp(base + i)).expect("init");
        }
        ctx.barrier_all().expect("initial barrier");

        for _ in 0..STEPS {
            // Publish boundary cells into the neighbours' halos:
            // my first cell is my left neighbour's right halo, and my
            // last cell is my right neighbour's left halo.
            let first = ctx.read_local::<f64>(&field, 1).expect("first");
            let last = ctx.read_local::<f64>(&field, CELLS_PER_PE).expect("last");
            ctx.put(&field, CELLS_PER_PE + 1, first, left_pe).expect("halo put left");
            ctx.put(&field, 0, last, right_pe).expect("halo put right");
            ctx.barrier_all().expect("halo barrier");

            // Local stencil update.
            let snapshot = ctx.read_local_slice::<f64>(&field, 0, CELLS_PER_PE + 2).expect("read");
            for i in 1..=CELLS_PER_PE {
                let v =
                    snapshot[i] + ALPHA * (snapshot[i - 1] - 2.0 * snapshot[i] + snapshot[i + 1]);
                ctx.write_local(&field, i, v).expect("write");
            }
            // Second barrier: nobody reads halos while neighbours still
            // update their interiors.
            ctx.barrier_all().expect("step barrier");
        }

        ctx.read_local_slice::<f64>(&field, 1, CELLS_PER_PE).expect("final read")
    })
    .expect("world run");

    let distributed: Vec<f64> = pieces.into_iter().flatten().collect();
    let reference = oracle(total, STEPS);
    let max_err =
        distributed.iter().zip(&reference).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);

    println!("1-D heat diffusion: {total} cells over {PES} PEs, {STEPS} steps");
    println!("  centre temperatures: {:?}", &distributed[total / 2 - 2..total / 2 + 2]);
    println!("  max |distributed - oracle| = {max_err:.3e}");
    assert!(max_err < 1e-9, "distributed stencil must match the oracle");
    println!("  OK: halo exchange over the NTB ring reproduces the serial result");
}
