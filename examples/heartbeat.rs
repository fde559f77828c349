//! Heartbeat monitoring — the classic NTB use case, on the SHMEM model.
//!
//! Before NTB became an interconnect, it connected pairs of hosts "mainly
//! to check connected host processors such as with heartbeating" (paper
//! §I). This example rebuilds that service on top of the OpenSHMEM
//! model: every PE periodically puts a monotonically increasing beat
//! counter into a symmetric status board on every other PE; each PE
//! watches the board and flags peers whose counter stalls. PE 3
//! deliberately stops beating halfway through, and everyone detects it.
//!
//! ```text
//! cargo run --release --example heartbeat
//! ```

use std::time::{Duration, Instant};

use shmem_ntb::prelude::*;

const PES: usize = 4;
const FAILING_PE: usize = 3;
const BEATS_BEFORE_FAILURE: u64 = 10;
const BEAT_PERIOD: Duration = Duration::from_millis(5);
const SUSPECT_AFTER: Duration = Duration::from_millis(40);
const RUN_FOR: Duration = Duration::from_millis(300);

fn main() {
    let cfg = ShmemConfig::fast_sim().with_hosts(PES).with_topology(Topology::ring(PES));

    let verdicts = ShmemWorld::run(cfg, |ctx| {
        let me = ctx.my_pe();
        let n = ctx.num_pes();
        // board[p] holds PE p's latest beat, replicated on every PE.
        let board = ctx.calloc_array::<u64>(n).expect("status board");
        ctx.barrier_all().expect("setup");

        let start = Instant::now();
        let mut my_beat = 0u64;
        let mut last_seen = vec![(0u64, Instant::now()); n];
        let mut suspected = vec![false; n];

        while start.elapsed() < RUN_FOR {
            // Beat (unless we are the scripted failure).
            let failing = me == FAILING_PE && my_beat >= BEATS_BEFORE_FAILURE;
            if !failing {
                my_beat += 1;
                for pe in 0..n {
                    if pe == me {
                        ctx.write_local(&board, me, my_beat).expect("local beat");
                    } else {
                        ctx.put(&board, me, my_beat, pe).expect("remote beat");
                    }
                }
            }

            // Watch everyone else's slot in our own board copy.
            for pe in 0..n {
                if pe == me {
                    continue;
                }
                let beat = ctx.read_local::<u64>(&board, pe).expect("read slot");
                if beat > last_seen[pe].0 {
                    last_seen[pe] = (beat, Instant::now());
                    suspected[pe] = false;
                } else if last_seen[pe].1.elapsed() > SUSPECT_AFTER && !suspected[pe] {
                    suspected[pe] = true;
                    println!(
                        "PE {me}: peer {pe} suspected dead (last beat {} at +{:?})",
                        last_seen[pe].0,
                        last_seen[pe].1.duration_since(start)
                    );
                }
            }
            std::thread::sleep(BEAT_PERIOD);
        }
        // No barrier here: the "failed" PE still participates in the final
        // one (it only stopped beating), so the world tears down cleanly.
        ctx.barrier_all().expect("teardown");
        suspected
    })
    .expect("world");

    println!("\nfinal suspicion matrix (row = observer):");
    for (observer, row) in verdicts.iter().enumerate() {
        println!("  PE {observer}: {row:?}");
        for (peer, &suspect) in row.iter().enumerate() {
            if observer == peer {
                continue;
            }
            assert_eq!(suspect, peer == FAILING_PE, "observer {observer} verdict on {peer}");
        }
    }
    println!("OK: every live PE detected exactly the failed peer (PE {FAILING_PE})");
}
