//! Distributed histogram with remote atomics.
//!
//! Every PE draws samples and bins them into a histogram that is
//! *sharded across a clique*: bin `b` lives on PE `b % num_pes`, and
//! increments are remote `atomic_fetch_add`s executed inside the owning
//! host's service thread. A final collect verifies the global count.
//!
//! ```text
//! cargo run --release --example histogram
//! ```

use rand::prelude::*;
use rand::rngs::StdRng;
use shmem_ntb::prelude::*;

const BINS: usize = 32;
const SAMPLES_PER_PE: usize = 2_000;
const PES: usize = 4;

fn main() {
    // Bin increments are all-to-all: every PE fires AMOs at every bin
    // owner, so the clique (one hop to everyone) is the matching fabric.
    let cfg = ShmemConfig::fast_sim().with_hosts(PES).with_topology(Topology::clique(PES));

    let local_views = ShmemWorld::run(cfg, |ctx| {
        let me = ctx.my_pe();
        let n = ctx.num_pes();
        let bins_here = BINS.div_ceil(n);
        // Each PE hosts `bins_here` slots; global bin b -> (PE b % n, slot b / n).
        let shard = ctx.calloc_array::<u64>(bins_here).expect("shard");
        ctx.barrier_all().expect("setup barrier");

        // Deterministic per-PE stream so the run is reproducible.
        let mut rng = StdRng::seed_from_u64(0xB10B + me as u64);
        for _ in 0..SAMPLES_PER_PE {
            // A crude bell shape: sum of three uniforms.
            let x: f64 = (0..3).map(|_| rng.random::<f64>()).sum::<f64>() / 3.0;
            let bin = ((x * BINS as f64) as usize).min(BINS - 1);
            let owner = bin % n;
            let slot = bin / n;
            ctx.atomic_fetch_add(&shard, slot, 1u64, owner).expect("remote increment");
        }
        ctx.barrier_all().expect("count barrier");

        // Everyone reconstructs the global histogram with gets.
        let mut global = vec![0u64; BINS];
        for (bin, slot_value) in global.iter_mut().enumerate() {
            let owner = bin % n;
            let slot = bin / n;
            *slot_value = if owner == me {
                ctx.read_local::<u64>(&shard, slot).expect("local read")
            } else {
                ctx.get::<u64>(&shard, slot, owner).expect("remote get")
            };
        }
        ctx.barrier_all().expect("final barrier");
        global
    })
    .expect("world run");

    // Every PE must have assembled the same histogram.
    for view in &local_views[1..] {
        assert_eq!(view, &local_views[0], "all PEs see one histogram");
    }
    let hist = &local_views[0];
    let total: u64 = hist.iter().sum();
    assert_eq!(total as usize, PES * SAMPLES_PER_PE, "no increment lost");

    println!("Distributed histogram ({} samples over {PES} PEs, {BINS} bins)", total);
    let peak = *hist.iter().max().unwrap() as f64;
    for (i, &count) in hist.iter().enumerate() {
        let bar = "#".repeat((count as f64 / peak * 50.0).round() as usize);
        println!("  bin {i:>2} [{count:>5}] {bar}");
    }

    // Bonus: a reduction sanity check — allreduce of per-PE sample counts.
    let reduce_cfg = ShmemConfig::fast_sim().with_hosts(PES).with_topology(Topology::clique(PES));
    let sums = ShmemWorld::run(reduce_cfg, |ctx| {
        ctx.allreduce(ReduceOp::Sum, &[SAMPLES_PER_PE as u64]).expect("allreduce")[0]
    })
    .expect("world run");
    assert!(sums.iter().all(|&s| s as usize == PES * SAMPLES_PER_PE));
    println!("  OK: {} remote atomic increments, none lost", total);
}
