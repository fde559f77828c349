//! `lossy_ring` — a 1-D stencil halo exchange over a deliberately lossy
//! ring: 1% of data doorbells are dropped and every link flaps dark for
//! a spell mid-run. The exchange must still converge to the exact same
//! answer a clean ring produces, with the recovery machinery (ack
//! timeouts, retransmission, CRC rejects, rerouting, probes) absorbing
//! every injected fault. The per-PE recovery counters are printed at
//! the end — on a clean run they are all zero.
//!
//! ```text
//! cargo run --release --example lossy_ring -- [seed]
//! ```

use std::time::Duration;

use shmem_ntb::net::RetryPolicy;
use shmem_ntb::prelude::*;

const PES: usize = 3;
const CELLS: usize = 64;
const ITERS: usize = 20;

fn lossy_plan(seed: u64) -> FaultPlan {
    // 1% of data doorbells vanish; each of the three ring links goes
    // dark once, 150 ms at a time, staggered through the run — long
    // enough that the health tracker marks the endpoint Down, reroutes
    // and probes it back.
    FaultPlan::none()
        .with_seed(seed)
        .with_doorbell_drop(0.01)
        .with_link_down(0, 25, Duration::from_millis(150))
        .with_link_down(1, 60, Duration::from_millis(150))
        .with_link_down(2, 100, Duration::from_millis(150))
}

fn snappy_retry() -> RetryPolicy {
    RetryPolicy {
        ack_timeout: Duration::from_millis(50),
        max_retries: 8,
        backoff_base: Duration::from_millis(10),
        backoff_max: Duration::from_millis(80),
        probe_interval: Duration::from_millis(25),
        slot_wait_timeout: Duration::from_millis(25),
        failure_threshold: 2,
    }
}

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(0xBAD11);

    let cfg = ShmemConfig::builder()
        .hosts(PES)
        .topology(Topology::ring(PES))
        .retry(snappy_retry())
        .faults(lossy_plan(seed))
        .build();

    println!("lossy ring: {PES} PEs, {CELLS} cells/PE, {ITERS} iterations, seed {seed:#x}");

    let reports = ShmemWorld::run(cfg, |ctx| {
        let me = ctx.my_pe();
        let n = ctx.num_pes();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;

        // Owned cells plus a ghost cell at each end.
        let field = ctx.calloc_array::<f64>(CELLS + 2).expect("field");
        let mut local = vec![0.0f64; CELLS + 2];
        // A deterministic bumpy initial condition.
        for (i, cell) in local.iter_mut().enumerate().skip(1).take(CELLS) {
            *cell = ((me * CELLS + i) % 17) as f64;
        }

        for _iter in 0..ITERS {
            // Halo exchange: my first owned cell -> left neighbour's
            // right ghost; my last owned cell -> right neighbour's left
            // ghost. Both travel the lossy ring.
            ctx.put_slice(&field, CELLS + 1, &local[1..2], left).expect("halo to left");
            ctx.put_slice(&field, 0, &local[CELLS..CELLS + 1], right).expect("halo to right");
            ctx.quiet().expect("quiet");
            ctx.barrier_all().expect("halo barrier");
            local[0] = ctx.read_local::<f64>(&field, 0).expect("left ghost");
            local[CELLS + 1] = ctx.read_local::<f64>(&field, CELLS + 1).expect("right ghost");

            // Jacobi relaxation over the owned cells.
            let prev = local.clone();
            for i in 1..=CELLS {
                local[i] = 0.25 * prev[i - 1] + 0.5 * prev[i] + 0.25 * prev[i + 1];
            }
            ctx.barrier_all().expect("step barrier");
        }

        let checksum: f64 = local[1..=CELLS].iter().sum();
        (me, checksum, ctx.stats_snapshot())
    })
    .expect("lossy world");

    let mut recovered = 0;
    println!(
        "\n{:>3} {:>14} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "PE", "checksum", "rexmit", "crcrej", "reroute", "dup", "probe", "down"
    );
    for (pe, checksum, stats) in &reports {
        println!(
            "{:>3} {:>14.6} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
            pe,
            checksum,
            stats.retransmits,
            stats.checksum_rejects,
            stats.reroutes,
            stats.duplicates_suppressed,
            stats.probes_sent,
            stats.link_down_events
        );
        recovered += stats.recovery_total();
    }
    let total: f64 = reports.iter().map(|(_, c, _)| c).sum();
    println!("\nglobal checksum {total:.6} (conserved: sum of the initial field)");
    println!("recovery actions absorbed across the ring: {recovered}");
    if recovered == 0 {
        println!("(no faults hit the data path this run — try another seed)");
    }
}
