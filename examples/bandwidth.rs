//! `bandwidth` — an OSU-style point-to-point micro-benchmark utility.
//!
//! Sweeps message sizes over the *calibrated* (paper-scale) timing model
//! and prints put/get latency and bandwidth between PE 0 and a chosen
//! partner, for both data paths. This is the tool you would run first on
//! a freshly cabled ring; it is also a compact interactive view of the
//! Fig. 9 physics.
//!
//! ```text
//! cargo run --release --example bandwidth -- [partner-pe] [time-scale]
//! ```

use std::time::Instant;

use shmem_ntb::prelude::*;

const PES: usize = 5;
const REPS: usize = 4;

fn main() {
    let mut args = std::env::args().skip(1);
    let partner: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1);
    let scale: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1.0);
    assert!((1..PES).contains(&partner), "partner must be 1..{PES}");

    // The paper's testbed shape: hop counts below are ring distances.
    let mut cfg = ShmemConfig::fast_sim()
        .with_hosts(PES)
        .with_topology(Topology::ring(PES))
        .with_time_scale(scale);
    cfg.barrier_timeout = std::time::Duration::from_secs(600);

    println!("point-to-point PE0 <-> PE{partner} (time scale {scale})");
    println!(
        "{:>8} {:>6} | {:>12} {:>12} | {:>12} {:>12}",
        "size", "mode", "put lat(us)", "put MB/s", "get lat(us)", "get MB/s"
    );

    ShmemWorld::run(cfg, |ctx| {
        let max = 512 << 10;
        let sym = ctx.malloc_array::<u8>(max).expect("buffer");
        if ctx.my_pe() != 0 {
            ctx.barrier_all().expect("spectator barrier");
            return;
        }
        for size in (0..10).map(|i| 1024usize << i) {
            for mode in [TransferMode::Dma, TransferMode::Memcpy] {
                let data = vec![0xBEu8; size];
                // Warm-up, then a timed pipelined burst.
                let opts = OpOptions::new().mode(mode);
                ctx.put_slice_opts(&sym, 0, &data, partner, opts).expect("warm-up");
                let t0 = Instant::now();
                for _ in 0..REPS {
                    ctx.put_slice_opts(&sym, 0, &data, partner, opts).expect("put");
                }
                let put = t0.elapsed() / REPS as u32;
                ctx.quiet().expect("quiet");

                let t0 = Instant::now();
                for _ in 0..REPS {
                    let v = ctx.get_slice_opts::<u8>(&sym, 0, size, partner, opts).expect("get");
                    assert_eq!(v.len(), size);
                }
                let get = t0.elapsed() / REPS as u32;

                println!(
                    "{:>8} {:>6} | {:>12.1} {:>12.1} | {:>12.1} {:>12.1}",
                    shmem_bench_label(size),
                    mode.label(),
                    put.as_secs_f64() * 1e6,
                    size as f64 / put.as_secs_f64() / 1e6,
                    get.as_secs_f64() * 1e6,
                    size as f64 / get.as_secs_f64() / 1e6,
                );
            }
        }
        ctx.barrier_all().expect("final barrier");
    })
    .expect("world run");
}

fn shmem_bench_label(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{}MB", bytes >> 20)
    } else {
        format!("{}KB", bytes >> 10)
    }
}
