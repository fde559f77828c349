//! Whole-PE failure lifecycle: crash → detection → degraded barrier →
//! ring healing → restart → rejoin.
//!
//! Five hosts run with the heartbeat failure detector enabled
//! (`HeartbeatConfig::fast`, ~120 ms detection floor) and
//! `DegradedPolicy::Degrade`, so collectives keep working over the
//! survivors. PE 2 crashes mid-run: its neighbours stop seeing beats,
//! confirm the death with a probe, and gossip an epoch-stamped eviction
//! around the ring. The survivors ride through a `PeFailed` barrier into
//! a degraded one, exchange data over the healed ring (1 ↔ 3 route the
//! long way around the dead hop), then PE 2 restarts, rejoins at a new
//! epoch and receives fresh data from a survivor.
//!
//! ```text
//! cargo run --release --example node_crash
//! ```

use std::time::{Duration, Instant};

use shmem_ntb::net::RetryPolicy;
use shmem_ntb::prelude::*;

const PES: usize = 5;
const VICTIM: usize = 2;
const DATA: usize = 64;
/// The detector deliberately ignores boot-time silence (a peer that has
/// never beaten is "starting", not "dead"), so the crash waits until the
/// victim has published a few beats.
const BEAT_WARMUP: Duration = Duration::from_millis(100);
const DEAD_FOR: Duration = Duration::from_millis(900);
const DEADLINE: Duration = Duration::from_secs(10);

fn main() {
    let retry = RetryPolicy {
        min_rto: Duration::from_millis(40),
        max_rto: Duration::from_millis(80),
        max_retries: 8,
        probe_interval: Duration::from_millis(20),
        failure_threshold: 3,
    };
    let mut cfg = ShmemConfig::fast_sim()
        .with_hosts(PES)
        .with_topology(Topology::ring(PES))
        .with_heartbeat(HeartbeatConfig::fast())
        .with_degraded_policy(DegradedPolicy::Degrade)
        .with_retry(retry);
    cfg.barrier_timeout = Duration::from_secs(20);

    ShmemWorld::run(cfg, |ctx| {
        let me = ctx.my_pe();
        // [0..DATA) payload, [DATA] flag, [DATA+1] ack.
        let sym = ctx.calloc_array::<u64>(DATA + 2).expect("symmetric board");
        ctx.barrier_all().expect("healthy barrier");

        if me == VICTIM {
            std::thread::sleep(BEAT_WARMUP);
            println!("[pe {me}] crashing");
            ctx.node().crash();
            std::thread::sleep(DEAD_FOR);

            let epoch_before = ctx.membership_epoch();
            ctx.node().restart(DEADLINE).expect("rejoin handshake");
            println!(
                "[pe {me}] restarted and rejoined: epoch {} -> {}",
                epoch_before,
                ctx.membership_epoch()
            );
            assert!(ctx.is_pe_live(me));

            // Fresh data from PE 1 proves the rejoined node is a full
            // participant again (its pre-crash heap contents are gone).
            ctx.wait_until(&sym, DATA, CmpOp::Eq, 1).expect("post-rejoin flag");
            let got: Vec<u64> = ctx.read_local_slice(&sym, 0, DATA).expect("delivered");
            assert!(got.iter().enumerate().all(|(i, &v)| v == 7000 + i as u64));
            println!("[pe {me}] received {} words from pe 1 after rejoin", got.len());
            ctx.put(&sym, DATA + 1, 1u64, 1).expect("ack");
            ctx.quiet().expect("drain ack");
            return me;
        }

        // Survivors: the next barrier either degrades cleanly under the
        // detector's eviction, or fails typed with PeFailed and the retry
        // lands on the degraded path.
        let t0 = Instant::now();
        loop {
            match ctx.barrier_all() {
                Ok(()) => break,
                Err(ShmemError::PeFailed { pe, epoch }) => {
                    println!(
                        "[pe {me}] barrier saw PeFailed(pe {pe}, epoch {epoch}); retrying degraded"
                    );
                    assert_eq!(pe, VICTIM);
                }
                Err(e) => panic!("[pe {me}] unexpected barrier error: {e}"),
            }
            assert!(t0.elapsed() < DEADLINE, "degraded barrier never completed");
        }
        let live = ctx.live_pes();
        println!("[pe {me}] degraded barrier ok; live set {live:?}");
        assert!(!live.contains(&VICTIM));

        // Ring puts over the survivors: 1 -> 3 must route around the dead
        // hop (1 -> 0 -> 4 -> 3), exercising the healed path.
        let idx = live.iter().position(|&p| p == me).expect("self in live set");
        let next = live[(idx + 1) % live.len()];
        let prev = live[(idx + live.len() - 1) % live.len()];
        ctx.put(&sym, me, 100 + me as u64, next).expect("survivor put");
        ctx.quiet().expect("drain survivor put");
        ctx.wait_until(&sym, prev, CmpOp::Eq, 100 + prev as u64).expect("survivor ring data");
        println!("[pe {me}] survivor exchange complete (next {next}, prev {prev})");

        // Wait for the victim's rejoin, then welcome it back.
        while !ctx.is_pe_live(VICTIM) {
            assert!(t0.elapsed() < DEADLINE, "victim never rejoined");
            std::thread::sleep(Duration::from_millis(2));
        }
        println!("[pe {me}] victim rejoined at epoch {}", ctx.membership_epoch());
        if me == 1 {
            let fresh: Vec<u64> = (0..DATA as u64).map(|i| 7000 + i).collect();
            ctx.put_slice(&sym, 0, &fresh, VICTIM).expect("post-rejoin payload");
            ctx.quiet().expect("drain payload");
            ctx.put(&sym, DATA, 1u64, VICTIM).expect("post-rejoin flag");
            ctx.wait_until(&sym, DATA + 1, CmpOp::Eq, 1).expect("victim ack");
        }
        ctx.quiet().expect("final drain");
        me
    })
    .expect("world");

    println!(
        "node_crash: crash, eviction, degraded barrier, healed routing and rejoin all verified"
    );
}
