//! Quickstart: the OpenSHMEM "hello world" on the switchless NTB ring.
//!
//! Three PEs each allocate the same symmetric array, put a greeting into
//! their right neighbour's memory, synchronize with the ring barrier, and
//! read what their left neighbour deposited.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use shmem_ntb::prelude::*;

fn main() {
    // Fast functional simulation: no modelled PCIe latencies. Swap in
    // `ShmemConfig::paper()` to feel the calibrated testbed timing, or
    // `Topology::torus(r, c)` / `Topology::clique(n)` to re-cable the
    // fabric — the SHMEM API is identical on every shape.
    let cfg = ShmemConfig::fast_sim().with_hosts(3).with_topology(Topology::ring(3));

    let reports = ShmemWorld::run(cfg, |ctx| {
        let me = ctx.my_pe();
        let n = ctx.num_pes();

        // Symmetric allocation: same offset on every PE (collective).
        let slots = ctx.malloc_array::<u64>(n).expect("symmetric alloc");

        // One-sided put into the right neighbour's symmetric memory.
        let right = (me + 1) % n;
        ctx.put(&slots, me, (me as u64 + 1) * 111, right).expect("put");

        // The ring barrier (two doorbell sweeps) completes all puts.
        ctx.barrier_all().expect("barrier");

        // What did the left neighbour leave in *our* memory?
        let left = (me + n - 1) % n;
        let gift = ctx.read_local::<u64>(&slots, left).expect("read");
        format!("PE {me}: received {gift} from PE {left}")
    })
    .expect("world run");

    for line in reports {
        println!("{line}");
    }
}
