//! Monte-Carlo π with collectives: broadcast, local work, allreduce.
//!
//! PE 0 broadcasts the experiment parameters, every PE throws darts at
//! the unit square, and the hit counts meet in an `allreduce`. A
//! distributed lock then serializes appending per-PE summaries into a
//! shared log region on PE 0 — exercising the lock and ordered-put path.
//!
//! ```text
//! cargo run --release --example pi_montecarlo
//! ```

use rand::prelude::*;
use rand::rngs::StdRng;
use shmem_ntb::prelude::*;

const PES: usize = 5;

fn main() {
    let cfg = ShmemConfig::fast_sim().with_hosts(PES).with_topology(Topology::ring(PES));

    let estimates = ShmemWorld::run(cfg, |ctx| {
        let me = ctx.my_pe();
        let n = ctx.num_pes();

        // PE 0 decides the sample count; everyone learns it by broadcast.
        let samples_per_pe =
            ctx.broadcast_value(if me == 0 { 200_000u64 } else { 0 }, 0).expect("bcast");
        assert_eq!(samples_per_pe, 200_000);

        // Embarrassingly parallel dart throwing.
        let mut rng = StdRng::seed_from_u64(0x314159 + me as u64);
        let mut hits = 0u64;
        for _ in 0..samples_per_pe {
            let x: f64 = rng.random();
            let y: f64 = rng.random();
            if x * x + y * y <= 1.0 {
                hits += 1;
            }
        }

        // Global reduction: everyone obtains the total hit count.
        let total_hits = ctx.allreduce(ReduceOp::Sum, &[hits]).expect("allreduce")[0];
        let total_samples = samples_per_pe * n as u64;
        let pi = 4.0 * total_hits as f64 / total_samples as f64;

        // Append "pe -> hits" into a log on PE 0, guarded by the
        // distributed lock (cursor + slots in symmetric memory).
        let lock = ctx.lock_alloc().expect("lock");
        let cursor = ctx.calloc_array::<u64>(1).expect("cursor");
        let log = ctx.calloc_array::<u64>(2 * n).expect("log");
        ctx.set_lock(&lock).expect("acquire");
        let slot = ctx.get::<u64>(&cursor, 0, 0).expect("read cursor") as usize;
        ctx.put_slice(&log, 2 * slot, &[me as u64, hits], 0).expect("append");
        ctx.quiet().expect("quiet");
        ctx.put(&cursor, 0, slot as u64 + 1, 0).expect("advance cursor");
        ctx.quiet().expect("quiet");
        ctx.clear_lock(&lock).expect("release");

        // PE 0 waits until every entry landed, then prints the log.
        if me == 0 {
            ctx.wait_until(&cursor, 0, CmpOp::Eq, n as u64).expect("log complete");
            let entries = ctx.read_local_slice::<u64>(&log, 0, 2 * n).expect("log read");
            println!("per-PE contributions (arrival order):");
            for e in entries.chunks(2) {
                println!("  PE {} contributed {} hits", e[0], e[1]);
            }
        }
        ctx.barrier_all().expect("final barrier");
        pi
    })
    .expect("world run");

    let pi = estimates[0];
    assert!(estimates.iter().all(|&e| (e - pi).abs() < 1e-12), "allreduce agrees everywhere");
    println!(
        "π ≈ {pi:.5} from {} samples across {PES} PEs (error {:+.5})",
        200_000 * PES,
        pi - std::f64::consts::PI
    );
    assert!((pi - std::f64::consts::PI).abs() < 0.01, "estimate in the right neighbourhood");
}
