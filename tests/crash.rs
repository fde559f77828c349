//! Whole-PE failure chaos matrix: crash, freeze and rejoin injected
//! into a live 5-PE SHMEM world while background doorbell-drop noise
//! keeps the retransmission machinery honest.
//!
//! Each cell runs the full stack — heartbeat failure detector, gossiped
//! membership epochs, ring healing around the dead hop, degraded
//! collectives and the crash-restart rejoin handshake — and certifies
//! the recorded event trace with the protocol-invariant checker
//! (`shmem_ntb::net::check`), including the failure-specific invariants
//! (dead-PE transmit discipline, membership-epoch monotonicity). A
//! violation dumps the rendered trace to `target/trace-dumps/<label>.txt`
//! before panicking, mirroring the link-chaos suite.
//!
//! The cells assert the acceptance behaviour of DESIGN.md §13:
//!
//! * **crash-during-barrier** — survivors stalled in a barrier against a
//!   crashed neighbour fail with the typed `PeFailed` (or complete
//!   degraded) well under the barrier timeout, then converge on the
//!   degraded dissemination barrier and keep exchanging data around the
//!   dead hop.
//! * **crash-mid-get** — a get hammering a crashed PE surfaces the typed
//!   `PeFailed` instead of hanging, while the other survivors' traffic
//!   is untouched.
//! * **freeze-then-thaw** — a hung host is (correctly) declared dead,
//!   but the thawed host's resuming beats bring membership back to full
//!   strength with its crash flag clear: no false permanent eviction.
//! * **rejoin** — a crashed host restarts, re-enters at the ring's
//!   current epoch, and byte-exact puts/gets flow both ways again.
//!
//! Every cell runs under two seeds; the seed drives the background
//! data-doorbell drop noise layered on top of the deterministic,
//! self-inflicted node fault.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use shmem_ntb::net::{check, HeartbeatConfig, RetryPolicy, Topology};
use shmem_ntb::shmem::{
    BarrierAlgorithm, CmpOp, DegradedPolicy, ReduceOp, ShmemConfig, ShmemError, ShmemWorld,
};
use shmem_ntb::sim::{render_events, EventLog, FaultPlan};

const HOSTS: usize = 5;
/// The PE that dies in every cell — mid-ring, so survivor traffic
/// between its neighbours must heal around the dead hop.
const VICTIM: usize = 2;

/// Generous outer limit; every cell asserts resolution far sooner.
const BARRIER_TIMEOUT: Duration = Duration::from_secs(20);
/// How long the victim lets heartbeats flow before injecting its fault.
/// The detector deliberately ignores boot-time silence (a peer that has
/// never published a beat is not countable as missing), so the fault
/// must land on a *warmed-up* ring — several beat periods past start.
const BEAT_WARMUP: Duration = Duration::from_millis(100);
/// "Well under the barrier timeout": failures must surface this fast.
const PROMPT: Duration = Duration::from_secs(8);

fn retry() -> RetryPolicy {
    RetryPolicy {
        ack_timeout: Duration::from_millis(40),
        max_retries: 8,
        backoff_base: Duration::from_millis(5),
        backoff_max: Duration::from_millis(40),
        probe_interval: Duration::from_millis(20),
        slot_wait_timeout: Duration::from_millis(20),
        failure_threshold: 3,
    }
}

/// Seeded background noise on the data doorbells only (control sweeps
/// stay lossless, as the transport requires).
fn noise(seed: u64) -> FaultPlan {
    FaultPlan::none().with_seed(seed).with_doorbell_drop(0.01)
}

fn crash_cfg(seed: u64, policy: DegradedPolicy) -> ShmemConfig {
    ShmemConfig::builder()
        .hosts(HOSTS)
        .heartbeat(HeartbeatConfig::fast())
        .degraded_policy(policy)
        .barrier_timeout(BARRIER_TIMEOUT)
        .retry(retry())
        .faults(noise(seed))
        .build()
}

/// Run the trace through the invariant checker; on violation, dump the
/// rendered report plus the full trace to `target/trace-dumps/` and
/// panic with the artifact path.
fn certify(label: &str, log: &Arc<EventLog>) {
    certify_pes(label, log, HOSTS);
}

/// [`certify`] for an arbitrary world size; returns the clean report so
/// callers can assert evidence floors on what was actually checked.
fn certify_pes(label: &str, log: &Arc<EventLog>, pes: usize) -> shmem_ntb::net::CheckReport {
    let events = log.take();
    assert_eq!(log.dropped(), 0, "{label}: trace ring buffer wrapped; raise the capacity");
    let report = check(&events, pes);
    if report.is_clean() {
        return report;
    }
    let dir = PathBuf::from("target/trace-dumps");
    std::fs::create_dir_all(&dir).expect("create target/trace-dumps");
    let path = dir.join(format!("{label}.txt"));
    let body = format!(
        "{} violation(s) in {} events\n\n{}\nfull trace:\n{}",
        report.violations.len(),
        events.len(),
        report.render_violations(),
        render_events(&events),
    );
    std::fs::write(&path, body).expect("write trace dump");
    panic!(
        "{label}: {} protocol-invariant violation(s); trace dump at {}",
        report.violations.len(),
        path.display()
    );
}

/// Spin until `cond` holds, panicking with `what` after [`PROMPT`].
fn await_membership(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + PROMPT;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Survivors enter the same barrier the dead PE abandoned; each retries
/// until the degraded dissemination barrier over the live set converges.
fn barrier_until_degraded_ok(ctx: &shmem_ntb::shmem::ShmemCtx) {
    let deadline = Instant::now() + PROMPT;
    loop {
        match ctx.barrier_all() {
            Ok(()) => return,
            Err(ShmemError::PeFailed { pe, .. }) => {
                assert_eq!(pe, VICTIM, "only the victim may be reported dead");
                assert!(Instant::now() < deadline, "degraded barrier never converged");
            }
            Err(e) => panic!("unexpected barrier error: {e}"),
        }
    }
}

/// Cell: the victim crashes while the survivors head into a barrier.
/// Their stalled attempt must resolve promptly (typed `PeFailed`, or a
/// degraded completion if the detector won the race), after which the
/// degraded barrier and ring-healed puts/gets keep working.
fn run_crash_during_barrier(seed: u64) {
    let cfg = crash_cfg(seed, DegradedPolicy::Degrade);
    let results = ShmemWorld::run(cfg, |ctx| {
        let log = ctx.node().obs().log().expect("observed world");
        log.enable();
        let me = ctx.my_pe();
        let sym = ctx.malloc_array::<u64>(HOSTS).expect("alloc");
        for i in 0..HOSTS {
            ctx.write_local(&sym, i, 0).expect("zero");
        }
        ctx.barrier_all().expect("healthy barrier");

        if me == VICTIM {
            ctx.quiet().expect("pre-crash quiet");
            // The survivors are already stalling inside their next
            // barrier by the time the warmed-up victim dies.
            std::thread::sleep(BEAT_WARMUP);
            ctx.node().crash();
            return Arc::clone(log);
        }

        // The victim is crashing concurrently; this attempt stalls
        // against the dead neighbour until the detector confirms.
        let t0 = Instant::now();
        let first = ctx.barrier_all();
        assert!(
            t0.elapsed() < PROMPT,
            "pe {me}: stalled barrier took {:?}, well over the detection floor",
            t0.elapsed()
        );
        match first {
            // The detector beat us to the entry check: degraded completion.
            Ok(()) => {}
            Err(ShmemError::PeFailed { pe, .. }) => {
                assert_eq!(pe, VICTIM, "pe {me}: wrong PE reported dead");
                barrier_until_degraded_ok(ctx);
            }
            Err(e) => panic!("pe {me}: expected PeFailed, got {e}"),
        }

        // Survivor traffic around the dead hop: each puts to the next
        // live PE (1 -> 3 must heal around the crashed PE 2).
        let live: Vec<usize> = (0..HOSTS).filter(|&p| p != VICTIM).collect();
        let rank = live.iter().position(|&p| p == me).expect("survivor rank");
        let next = live[(rank + 1) % live.len()];
        let prev = live[(rank + live.len() - 1) % live.len()];
        ctx.put(&sym, me, 100 + me as u64, next).expect("survivor put");
        ctx.quiet().expect("survivor quiet");
        let got = ctx.wait_until(&sym, prev, CmpOp::Eq, 100 + prev as u64).expect("survivor data");
        assert_eq!(got, 100 + prev as u64);

        // One more aligned degraded barrier closes the round; the final
        // quiet drains the barrier's own flag-put acks so the certified
        // trace is quiescent.
        ctx.barrier_all().expect("closing degraded barrier");
        ctx.quiet().expect("final quiet");
        assert!(!ctx.is_pe_live(VICTIM), "victim must stay evicted");
        assert_eq!(ctx.live_pes(), live);
        assert!(ctx.membership_epoch() >= 1, "eviction must bump the epoch");
        Arc::clone(log)
    })
    .expect("world");
    certify(&format!("crash-during-barrier-{seed}"), &results[0]);
}

/// Cell: a survivor hammers gets at the victim across the crash. The
/// loop must surface the *typed* `PeFailed` — not hang, not stay stuck
/// on anonymous transport errors — while the remaining survivors'
/// unrelated traffic completes untouched.
fn run_crash_mid_get(seed: u64) {
    const DATA: usize = 4096;
    let cfg = crash_cfg(seed, DegradedPolicy::Degrade);
    let results = ShmemWorld::run(cfg, |ctx| {
        let log = ctx.node().obs().log().expect("observed world");
        log.enable();
        let me = ctx.my_pe();
        let sym = ctx.malloc_array::<u64>(DATA + HOSTS).expect("alloc");
        let pattern: Vec<u64> = (0..DATA as u64).map(|i| seed.wrapping_mul(1000) + i).collect();
        if me == VICTIM {
            ctx.write_local_slice(&sym, 0, &pattern).expect("seed pattern");
        }
        for i in 0..HOSTS {
            ctx.write_local(&sym, DATA + i, 0).expect("zero flag");
        }
        ctx.barrier_all().expect("healthy barrier");

        if me == VICTIM {
            std::thread::sleep(BEAT_WARMUP);
            ctx.node().crash();
            return Arc::clone(log);
        }

        if me == 1 {
            // Gets in flight across the crash: before confirmation they
            // may fail with transport-level errors (or even complete);
            // once this node declares the victim dead the typed error
            // must take over.
            let deadline = Instant::now() + PROMPT;
            let mut typed = false;
            while Instant::now() < deadline {
                match ctx.get_slice::<u64>(&sym, 0, DATA, VICTIM) {
                    Ok(d) => assert_eq!(d, pattern, "pre-crash get must be byte-exact"),
                    Err(ShmemError::PeFailed { pe, .. }) => {
                        assert_eq!(pe, VICTIM);
                        typed = true;
                        break;
                    }
                    Err(_) => {} // transport error in the confirmation window
                }
            }
            assert!(typed, "get against a crashed PE must fail with the typed PeFailed");
        } else {
            // The other survivors' traffic never touches the dead hop
            // and must be oblivious to the crash.
            let peers: Vec<usize> = (0..HOSTS).filter(|&p| p != VICTIM && p != 1).collect();
            let rank = peers.iter().position(|&p| p == me).expect("peer rank");
            let next = peers[(rank + 1) % peers.len()];
            let prev = peers[(rank + peers.len() - 1) % peers.len()];
            ctx.put(&sym, DATA + me, 500 + me as u64, next).expect("bystander put");
            ctx.quiet().expect("bystander quiet");
            let got = ctx
                .wait_until(&sym, DATA + prev, CmpOp::Eq, 500 + prev as u64)
                .expect("bystander data");
            assert_eq!(got, 500 + prev as u64);
        }

        barrier_until_degraded_ok(ctx);
        ctx.quiet().expect("final quiet");
        assert_eq!(ctx.live_pes(), vec![0, 1, 3, 4]);
        Arc::clone(log)
    })
    .expect("world");
    certify(&format!("crash-mid-get-{seed}"), &results[0]);
}

/// Cell: the victim hangs (frozen ports) long past the detection floor,
/// is declared dead, then thaws. Its resuming beats must bring every
/// survivor's membership back to full strength — thaw is a rejoin with
/// the crash flag clear, never a permanent eviction — and traffic to
/// the thawed host must be byte-exact again.
fn run_freeze_then_thaw(seed: u64) {
    const DATA: usize = 32;
    let cfg = crash_cfg(seed, DegradedPolicy::Degrade);
    let results = ShmemWorld::run(cfg, |ctx| {
        let log = ctx.node().obs().log().expect("observed world");
        log.enable();
        let me = ctx.my_pe();
        let sym = ctx.malloc_array::<u64>(2 * DATA + 2).expect("alloc");
        let mine: Vec<u64> = (0..DATA as u64).map(|i| me as u64 * 10_000 + i).collect();
        ctx.write_local_slice(&sym, 0, &mine).expect("seed pattern");
        ctx.write_local(&sym, 2 * DATA, 0).expect("zero flag");
        ctx.write_local(&sym, 2 * DATA + 1, 0).expect("zero ack");
        ctx.barrier_all().expect("healthy barrier");

        if me == VICTIM {
            // Hang well past the detection floor (~120ms at fast()
            // timings), then resume. The closure thread itself keeps
            // running — only the host's ports stall, exactly like a
            // wedged machine.
            std::thread::sleep(BEAT_WARMUP);
            ctx.node().freeze();
            std::thread::sleep(Duration::from_millis(500));
            ctx.node().thaw();
            // Wait for PE 1's flag; by then membership healed.
            ctx.wait_until(&sym, 2 * DATA, CmpOp::Eq, 1).expect("post-thaw flag");
            let delivered = ctx.read_local_slice(&sym, DATA, DATA).expect("read delivered");
            let expect: Vec<u64> = (0..DATA as u64).map(|i| 10_000 + i).collect();
            assert_eq!(delivered, expect, "post-thaw put must be byte-exact");
            let fetched = ctx.get_slice::<u64>(&sym, 0, DATA, 1).expect("post-thaw get");
            assert_eq!(fetched, expect, "post-thaw get must be byte-exact");
            ctx.put(&sym, 2 * DATA + 1, 2, 1).expect("ack");
            ctx.quiet().expect("post-thaw quiet");
            return Arc::clone(log);
        }

        // Every survivor watches the eviction land, then heal.
        await_membership("victim eviction", || !ctx.is_pe_live(VICTIM));
        await_membership("victim return", || ctx.is_pe_live(VICTIM));
        assert_eq!(ctx.live_pes(), (0..HOSTS).collect::<Vec<_>>());
        let view = ctx.node().membership().view();
        assert_eq!(
            view.crash_flags & (1 << VICTIM),
            0,
            "a thawed host rejoins with its crash flag clear (no state purge)"
        );

        if me == 1 {
            let data = ctx.read_local_slice(&sym, 0, DATA).expect("read own");
            ctx.put_slice(&sym, DATA, &data, VICTIM).expect("put to thawed host");
            ctx.quiet().expect("quiet");
            ctx.put(&sym, 2 * DATA, 1, VICTIM).expect("flag");
            let ack = ctx.wait_until(&sym, 2 * DATA + 1, CmpOp::Eq, 2).expect("ack");
            assert_eq!(ack, 2);
            ctx.quiet().expect("final quiet");
        }
        Arc::clone(log)
    })
    .expect("world");
    certify(&format!("freeze-then-thaw-{seed}"), &results[0]);
}

/// Cell (strict `Fail` policy): the victim crashes and restarts. While
/// it is dead, a survivor barrier fails with the typed `PeFailed`
/// (degraded collectives refused under the strict policy); after
/// `restart` the victim re-enters at the ring's advanced epoch and
/// byte-exact puts/gets flow both ways.
fn run_rejoin_after_crash(seed: u64) {
    const DATA: usize = 64;
    let cfg = crash_cfg(seed, DegradedPolicy::Fail);
    let results = ShmemWorld::run(cfg, |ctx| {
        let log = ctx.node().obs().log().expect("observed world");
        log.enable();
        let me = ctx.my_pe();
        let sym = ctx.malloc_array::<u64>(2 * DATA + 2).expect("alloc");
        let survivor_data: Vec<u64> = (0..DATA as u64).map(|i| seed.wrapping_mul(7) + i).collect();
        if me == 1 {
            ctx.write_local_slice(&sym, DATA, &survivor_data).expect("seed pattern");
        }
        ctx.write_local(&sym, 2 * DATA, 0).expect("zero flag");
        ctx.write_local(&sym, 2 * DATA + 1, 0).expect("zero ack");
        ctx.barrier_all().expect("healthy barrier");

        if me == VICTIM {
            ctx.quiet().expect("pre-crash quiet");
            std::thread::sleep(BEAT_WARMUP);
            ctx.node().crash();
            // Stay dead long enough for the survivors to observe the
            // eviction and assert the strict-policy barrier refusal.
            std::thread::sleep(Duration::from_millis(1500));
            let epoch_before = ctx.membership_epoch();
            ctx.node().restart(PROMPT).expect("rejoin handshake");
            assert!(ctx.is_pe_live(me), "restarted PE must count itself live");
            assert!(
                ctx.membership_epoch() > epoch_before,
                "rejoin must land at the ring's advanced epoch"
            );
            // Byte-exact traffic at the new epoch (no barriers: the
            // restarted PE's barrier state died with it).
            ctx.wait_until(&sym, 2 * DATA, CmpOp::Eq, 1).expect("post-rejoin flag");
            let delivered = ctx.read_local_slice(&sym, 0, DATA).expect("read delivered");
            assert_eq!(delivered, survivor_data, "post-rejoin put must be byte-exact");
            let fetched = ctx.get_slice::<u64>(&sym, DATA, DATA, 1).expect("post-rejoin get");
            assert_eq!(fetched, survivor_data, "post-rejoin get must be byte-exact");
            ctx.put(&sym, 2 * DATA + 1, 2, 1).expect("ack");
            ctx.quiet().expect("post-rejoin quiet");
            return Arc::clone(log);
        }

        await_membership("victim eviction", || !ctx.is_pe_live(VICTIM));
        // Under the strict policy a degraded barrier is refused with the
        // typed error. (Guard on liveness: if the victim already
        // rejoined — it stays dead for 1.5s, so this is theoretical —
        // the refusal no longer applies.)
        if !ctx.is_pe_live(VICTIM) {
            match ctx.barrier_all() {
                Err(ShmemError::PeFailed { pe, epoch }) => {
                    assert_eq!(pe, VICTIM);
                    assert!(epoch >= 1);
                }
                Ok(()) => panic!("pe {me}: strict policy must refuse a degraded barrier"),
                Err(e) => panic!("pe {me}: expected PeFailed, got {e}"),
            }
        }
        await_membership("victim rejoin", || ctx.is_pe_live(VICTIM));
        assert_eq!(ctx.live_pes(), (0..HOSTS).collect::<Vec<_>>());

        if me == 1 {
            ctx.put_slice(&sym, 0, &survivor_data, VICTIM).expect("put to rejoined host");
            ctx.quiet().expect("quiet");
            ctx.put(&sym, 2 * DATA, 1, VICTIM).expect("flag");
            let ack = ctx.wait_until(&sym, 2 * DATA + 1, CmpOp::Eq, 2).expect("ack");
            assert_eq!(ack, 2);
            ctx.quiet().expect("final quiet");
        }
        Arc::clone(log)
    })
    .expect("world");
    certify(&format!("rejoin-after-crash-{seed}"), &results[0]);
}

/// Cell: the victim dies while the survivors wait in an allreduce it
/// never joins. The allreduce allocates nothing and makes no barrier, so
/// only its membership-polled wait can notice: it must fail promptly with
/// `PeFailed` naming the victim, as a stalled barrier does. Once the
/// failure report of the round's puts to the victim is drained, the
/// retry runs over the live set and folds the survivors only.
fn run_crash_during_allreduce(seed: u64) {
    let cfg = crash_cfg(seed, DegradedPolicy::Degrade);
    let results = ShmemWorld::run(cfg, |ctx| {
        let log = ctx.node().obs().log().expect("observed world");
        log.enable();
        let me = ctx.my_pe();
        ctx.barrier_all().expect("healthy barrier");
        if me == VICTIM {
            ctx.quiet().expect("pre-crash quiet");
            std::thread::sleep(BEAT_WARMUP);
            ctx.node().crash();
            return Arc::clone(log);
        }
        let t0 = Instant::now();
        match ctx.allreduce(ReduceOp::Sum, &[me as u64 + 1]) {
            Err(ShmemError::PeFailed { pe, .. }) => assert_eq!(pe, VICTIM, "pe {me}"),
            other => panic!("pe {me}: expected PeFailed, got {other:?}"),
        }
        assert!(t0.elapsed() < PROMPT, "pe {me}: stalled allreduce took {:?}", t0.elapsed());
        // The failed round's puts to the victim were abandoned when its
        // death was confirmed; take that report before retrying.
        match ctx.quiet() {
            Ok(()) => {}
            Err(ShmemError::PeFailed { pe, .. }) => assert_eq!(pe, VICTIM, "pe {me}"),
            Err(e) => panic!("pe {me}: unexpected quiet error {e}"),
        }
        let want: u64 = (0..HOSTS).filter(|&p| p != VICTIM).map(|p| p as u64 + 1).sum();
        let got = ctx.allreduce(ReduceOp::Sum, &[me as u64 + 1]).expect("degraded allreduce");
        assert_eq!(got, vec![want], "pe {me}: the retry folds the live PEs only");
        ctx.barrier_all().expect("closing degraded barrier");
        ctx.quiet().expect("final quiet");
        Arc::clone(log)
    })
    .expect("world");
    certify(&format!("crash-during-allreduce-{seed}"), &results[0]);
}

// ---------------------------------------------------------------------------
// Torus crash: the victim dies inside a 16-PE dissemination barrier on a
// 4x4 torus. Unlike the ring cells above, barrier flags here are *routed*
// puts (partner distance 2^k crosses multiple links), so the crash lands
// on in-flight forwarded traffic and the degraded barrier must converge
// over the live set with dead-node-aware routing.
// ---------------------------------------------------------------------------

const TORUS_PES: usize = 16;
/// Mid-grid victim (row 1, col 1): four live torus neighbours, so every
/// routed path past it has a detour to heal onto.
const TORUS_VICTIM: usize = 5;
/// Detection + degraded convergence budget for the 16-PE world; wider
/// than [`PROMPT`] because sixteen hosts' service threads share the
/// harness machine, but still a quarter of [`BARRIER_TIMEOUT`].
const TORUS_PROMPT: Duration = Duration::from_secs(10);

fn torus_crash_cfg(seed: u64) -> ShmemConfig {
    ShmemConfig::builder()
        .hosts(TORUS_PES)
        .topology(Topology::torus(4, 4))
        .barrier_algorithm(BarrierAlgorithm::Dissemination)
        .heartbeat(HeartbeatConfig::fast())
        .degraded_policy(DegradedPolicy::Degrade)
        .barrier_timeout(BARRIER_TIMEOUT)
        .retry(retry())
        .faults(noise(seed))
        .build()
}

/// Cell: crash during a dissemination barrier at 16 PEs on the torus.
/// The survivors' stalled round must resolve promptly (typed `PeFailed`
/// naming the victim, or a degraded completion), the degraded barrier
/// must converge over the 15 live PEs, and survivor put/get traffic must
/// route around the dead cell. The certified trace carries evidence
/// floors: barrier epochs, routed survivor puts and a membership
/// eviction must all have actually been checked.
fn run_crash_during_dissemination_barrier(seed: u64) {
    let cfg = torus_crash_cfg(seed);
    let results = ShmemWorld::run(cfg, |ctx| {
        let log = ctx.node().obs().log().expect("observed world");
        log.enable();
        let me = ctx.my_pe();
        let sym = ctx.malloc_array::<u64>(TORUS_PES).expect("alloc");
        for i in 0..TORUS_PES {
            ctx.write_local(&sym, i, 0).expect("zero");
        }
        ctx.barrier_all().expect("healthy dissemination barrier");

        if me == TORUS_VICTIM {
            ctx.quiet().expect("pre-crash quiet");
            // The survivors are already stalling inside their next
            // barrier rounds by the time the warmed-up victim dies.
            std::thread::sleep(BEAT_WARMUP);
            ctx.node().crash();
            return Arc::clone(log);
        }

        let t0 = Instant::now();
        let first = ctx.barrier_all();
        assert!(
            t0.elapsed() < TORUS_PROMPT,
            "pe {me}: stalled dissemination barrier took {:?}",
            t0.elapsed()
        );
        match first {
            // The detector beat us to the entry check: degraded completion.
            Ok(()) => {}
            Err(ShmemError::PeFailed { pe, .. }) => {
                assert_eq!(pe, TORUS_VICTIM, "pe {me}: wrong PE reported dead");
                let deadline = Instant::now() + TORUS_PROMPT;
                loop {
                    match ctx.barrier_all() {
                        Ok(()) => break,
                        Err(ShmemError::PeFailed { pe, .. }) => {
                            assert_eq!(pe, TORUS_VICTIM, "pe {me}: wrong PE reported dead");
                            assert!(
                                Instant::now() < deadline,
                                "pe {me}: degraded dissemination barrier never converged"
                            );
                        }
                        Err(e) => panic!("pe {me}: unexpected barrier error: {e}"),
                    }
                }
            }
            Err(e) => panic!("pe {me}: expected PeFailed, got {e}"),
        }

        // Survivor traffic around the dead cell: each puts to the next
        // live PE in rank order, so PEs 4 and 6 (the victim's row
        // neighbours) exchange through a healed route.
        let live: Vec<usize> = (0..TORUS_PES).filter(|&p| p != TORUS_VICTIM).collect();
        let rank = live.iter().position(|&p| p == me).expect("survivor rank");
        let next = live[(rank + 1) % live.len()];
        let prev = live[(rank + live.len() - 1) % live.len()];
        ctx.put(&sym, me, 200 + me as u64, next).expect("survivor put");
        ctx.quiet().expect("survivor quiet");
        let got = ctx.wait_until(&sym, prev, CmpOp::Eq, 200 + prev as u64).expect("survivor data");
        assert_eq!(got, 200 + prev as u64);

        // One more aligned degraded barrier closes the round; the final
        // quiet drains the barrier's own flag-put acks so the certified
        // trace is quiescent.
        ctx.barrier_all().expect("closing degraded barrier");
        ctx.quiet().expect("final quiet");
        assert!(!ctx.is_pe_live(TORUS_VICTIM), "victim must stay evicted");
        assert_eq!(ctx.live_pes(), live);
        assert!(ctx.membership_epoch() >= 1, "eviction must bump the epoch");
        Arc::clone(log)
    })
    .expect("world");
    let label = format!("crash-during-dissemination-barrier-{seed}");
    let report = certify_pes(&label, &results[0], TORUS_PES);
    // Evidence floors: a clean verdict on an empty trace proves nothing.
    assert!(report.barriers_checked >= 1, "{label}: no barrier epochs certified");
    assert!(
        report.puts_checked >= TORUS_PES - 1,
        "{label}: only {} put chunks certified, need >= {}",
        report.puts_checked,
        TORUS_PES - 1
    );
    assert!(
        report.membership_updates_checked >= 1,
        "{label}: the eviction's membership update was never certified"
    );
    eprintln!(
        "torus crash/{seed}: {} events, {} barriers, {} puts, {} membership updates certified",
        report.events,
        report.barriers_checked,
        report.puts_checked,
        report.membership_updates_checked
    );
}

/// The seed matrix: every cell under two noise seeds.
macro_rules! crash_matrix {
    ($($name:ident => $runner:ident($seed:expr);)*) => {$(
        #[test]
        fn $name() {
            $runner($seed);
        }
    )*};
}

crash_matrix! {
    crash_during_barrier_seed7 => run_crash_during_barrier(7);
    crash_during_barrier_seed23 => run_crash_during_barrier(23);
    crash_mid_get_seed7 => run_crash_mid_get(7);
    crash_mid_get_seed23 => run_crash_mid_get(23);
    freeze_then_thaw_seed7 => run_freeze_then_thaw(7);
    freeze_then_thaw_seed23 => run_freeze_then_thaw(23);
    rejoin_after_crash_seed7 => run_rejoin_after_crash(7);
    rejoin_after_crash_seed23 => run_rejoin_after_crash(23);
    crash_during_allreduce_seed7 => run_crash_during_allreduce(7);
    crash_during_allreduce_seed23 => run_crash_during_allreduce(23);
    crash_during_dissemination_barrier_seed7 => run_crash_during_dissemination_barrier(7);
    crash_during_dissemination_barrier_seed23 => run_crash_during_dissemination_barrier(23);
}
